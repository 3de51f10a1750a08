import json
from pathlib import Path

import pytest

from thermotele import cli


def test_point_json(capsys):
    status = cli.main(
        ["point", "--model", "ising", "--lambda", "0.7", "--kt", "0.1"]
    )
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "ising"
    assert payload["prob_value"] >= 0.99
    assert payload["above_classical_prob"] is True


def test_point_requires_kt():
    with pytest.raises(SystemExit):
        cli.main(["point", "--model", "ising", "--lambda", "0.7"])


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    status = cli.main(
        [
            "sweep", "--model", "xx", "--lambda", "0.7",
            "--var", "kt", "--from", "0.1", "--to", "1.0", "--steps", "4",
            "--out", str(out),
        ]
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("schema_version,model")


def test_sweep_over_lambda(capsys):
    status = cli.main(
        [
            "sweep", "--model", "ising", "--kt", "0.3",
            "--var", "lambda", "--from", "0.2", "--to", "1.2", "--steps", "3",
        ]
    )
    assert status == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model = ising\nlambda = 0.7\nkt = 0.1\n# comment\n")
    status = cli.main(
        ["point", "--model", "ising", "--kt", "0.25", "--config", str(config)]
    )
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["lam"] == 0.7  # from config
    assert payload["kt"] == 0.25  # explicit flag wins


def test_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bogus = 1\n")
    with pytest.raises(SystemExit):
        cli.main(
            ["point", "--model", "ising", "--lambda", "1.0", "--kt", "1.0",
             "--config", str(config)]
        )


def test_critical_subcommand(capsys):
    assert cli.main(["critical", "xxx_field", "--field", "8.0"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["critical", "xxz_field", "--field", "4"], ("--bigj", "--field")),
        (["critical", "xxz_field", "--bigj", "1"], ("--bigj", "--field")),
        (["critical", "xxx_field"], ("--field",)),
    ],
)
def test_critical_names_its_missing_flags(argv, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ") and err.count("\n") == 1
    assert all(flag in err for flag in flags)


def test_figure_subcommand(tmp_path, capsys):
    status = cli.main(
        ["figure", "fig3", "--out", str(tmp_path), "--steps", "6"]
    )
    assert status == 0
    assert (tmp_path / "xx_det.csv").exists()
    assert (tmp_path / "fig3.gp").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--model", "ising", "--lambda", "0.7", "--kt", "-1"],
        ["point", "--model", "xy", "--lambda", "0.7", "--zeta", "2", "--kt", "1"],
        ["sweep", "--model", "xx", "--lambda", "0.7", "--var", "kt",
         "--from", "-1", "--to", "1", "--steps", "3"],
        ["point", "--model", "xxz", "--kt", "0.5"],
        ["sweep", "--model", "xy", "--var", "kt", "--from", "0.1", "--to", "1", "--steps", "3"],
        ["sweep", "--model", "ising", "--lambda", "0.7", "--kt", "1", "--var", "delta",
         "--from", "0", "--to", "1", "--steps", "3"],
    ],
)
def test_bad_physical_input_is_a_one_line_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--model", "xx", "--lambda", "0.7", "--kt", "0.1"],
        ["sweep", "--model", "xx", "--lambda", "0.7", "--var", "kt",
         "--from", "0.1", "--to", "1.0", "--steps", "3"],
        ["validate"],
    ],
)
def test_config_values_take_the_flag_type(argv, tmp_path):
    # --out has no default, so its value must be parsed as the flag's
    # Path type, not as a float
    config = tmp_path / "run.cfg"
    config.write_text("out = results.csv\nseed = 7\n")
    parser, commands = cli.build_parser()
    args = parser.parse_args([*argv, "--config", str(config)])
    actions = {a.dest: a for a in commands[args.command]._actions}
    args = cli._apply_config(args, actions)
    assert args.out == Path("results.csv")
    assert args.seed == 7


def test_config_out_writes_the_csv(tmp_path, capsys):
    out = tmp_path / "point.csv"
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {out}\n")
    argv = ["point", "--model", "xx", "--lambda", "0.7", "--kt", "0.1"]
    assert cli.main([*argv, "--config", str(config)]) == 0
    assert out.read_text().startswith("schema_version,model")


@pytest.mark.parametrize(
    "text",
    ["kt = warm\n", "engine = fast\n", "bogus = 1\n", "no equals sign\n"],
)
def test_bad_config_is_a_one_line_error(text, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["point", "--model", "xx", "--lambda", "0.7", "--config", str(config)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ") and "config" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (["point"], "model = xx\nlambda = 0.7\nkt = 0.1\n"),
        (["sweep"], "model = xx\nlambda = 0.7\nvar = kt\nfrom = 0.1\nto = 1.0\nsteps = 3\n"),
    ],
)
def test_config_alone_supplies_every_value(argv, text, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert cli.main([*argv, "--config", str(config)]) == 0
    out = capsys.readouterr().out
    if argv == ["point"]:
        payload = json.loads(out)
        assert (payload["model"], payload["kt"], payload["params"]["lam"]) == ("xx", 0.1, 0.7)
    else:
        assert len(out.splitlines()) == 3


SWEEP = ["sweep", "--model", "xx", "--lambda", "0.7",
         "--var", "kt", "--from", "0.1", "--to", "1.0", "--steps", "3"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["point", "--lambda", "0.7", "--kt", "0.1"], "--model"),
        (["point", "--model", "xx", "--lambda", "0.7"], "--kt"),
        ([a for a in SWEEP if a not in ("--model", "xx")], "--model"),
        ([a for a in SWEEP if a not in ("--var", "kt")], "--var"),
        ([a for a in SWEEP if a not in ("--from", "0.1")], "--from"),
        ([a for a in SWEEP if a not in ("--to", "1.0")], "--to"),
        ([a for a in SWEEP if a not in ("--steps", "3")], "--steps"),
    ],
)
def test_missing_value_is_a_one_line_error(argv, flag, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("engine = closed\n")
    for extra in ([], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("thermotele: error: ") and flag in err
        assert err.count("\n") == 1
