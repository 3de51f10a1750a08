import json
import math
from pathlib import Path

import pytest

from thermotele import _checks, cli, sweeps


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


def test_flag_at_its_default_wins_over_the_config(tmp_path, capsys):
    # an explicit --engine closed once lost to the file, as it equals the
    # flag's default
    config = tmp_path / "run.cfg"
    config.write_text("engine = both\nkt = 0.5\n")
    argv = ["point", "--model", "xx", "--lambda", "0.7", "--kt", "0.1", "--engine", "closed"]
    assert cli.main([*argv, "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["engine"], payload["kt"]) == ("closed", 0.1)


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


def test_critical_outside_the_old_bracket(capsys):
    # the bisection this replaced searched J in [1e-6, 10] only
    assert cli.main(["critical", "xxx_field", "--field", "200"]) == 0
    assert capsys.readouterr().out == "25.0\n"


@pytest.mark.parametrize(
    "argv, value",
    [
        (["critical", "xxx_field", "--field", "1e-20"], 1.25e-21),
        (["critical", "xxz_field", "--bigj", "1", "--field", "4.000000000001"],
         (4.000000000001 - 4.0) / 4.0),
        (["critical", "xy", "--zeta", "0"], 1.0),
        (["critical", "xy", "--zeta", "0.5"], 1.0 / math.sqrt(0.75)),
    ],
)
def test_critical_prints_every_digit(argv, value, capsys):
    # a fixed number of decimals printed these small crossings as zero
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{value!r}\n"


def test_critical_at_the_largest_buildable_field(capsys):
    # J_c = 1e307 gives the xxx model a largest energy gap 2 |h| = 1.6e308
    assert cli.main(["critical", "xxx_field", "--field", "8e307"]) == 0
    assert float(capsys.readouterr().out) == 1e307


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["critical", "xxz_field", "--field", "4"], ("--bigj", "--field")),
        (["critical", "xxz_field", "--bigj", "1"], ("--bigj", "--field")),
        (["critical", "xxx_field"], ("--field",)),
        (["critical", "xy"], ("--zeta",)),
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
        # values the model does not read, or pins
        ["point", "--model", "xxx", "--bigj", "1", "--field", "8", "--delta", "0.3", "--kt", "1"],
        ["point", "--model", "ising", "--lambda", "0.7", "--zeta", "0.2", "--kt", "1"],
        ["sweep", "--model", "xx", "--lambda", "0.7", "--field", "4", "--var", "kt",
         "--from", "0.1", "--to", "1", "--steps", "3"],
        # the text after --config is written to the config file
        ["point", "--config", "model = xxx\nbigj = 1\nfield = 8\ndelta = 0.3\nkt = 1\n"],
        # options no subcommand but validate reads
        ["point", "--model", "xx", "--lambda", "0.7", "--kt", "0.1", "--seed", "3"],
        ["sweep", "--model", "xx", "--lambda", "0.7", "--var", "kt",
         "--from", "0.1", "--to", "1", "--steps", "3", "--seed", "3"],
        ["figure", "fig3", "--steps", "2", "--out", "{tmp}", "--seed", "3"],
        # crossings given a value they do not read
        ["critical", "xxx_field", "--field", "8", "--bigj", "5"],
        ["critical", "xy", "--field", "3"],
        # crossings that do not exist or are not finite
        ["critical", "xxz_field", "--bigj", "0", "--field", "0"],
        ["critical", "xxz_field", "--bigj", "1e-320", "--field", "4"],
        ["critical", "xxx_field", "--field", "nan"],
        # crossings whose model's couplings overflow
        ["critical", "xxx_field", "--field", "9e307"],
        ["critical", "xxz_field", "--bigj", "1e307", "--field", "1e308"],
        # a fixed value for the swept variable
        ["sweep", "--model", "xx", "--lambda", "0.7", "--kt", "5", "--var", "kt",
         "--from", "0.1", "--to", "1", "--steps", "2"],
        ["sweep", "--model", "ising", "--lambda", "0.3", "--kt", "1", "--var", "lambda",
         "--from", "0.1", "--to", "1", "--steps", "2"],
        # argparse's own error
        ["point", "--model", "xx", "--lambda", "0.7", "--kt", "abc"],
        # numbers at the edge
        ["sweep", "--model", "xx", "--lambda", "0.7", "--var", "kt",
         "--from", "0.1", "--to", "inf", "--steps", "3"],
        ["point", "--model", "raw", "--jx", "1", "--kt", "1e-320"],
        ["point", "--model", "raw", "--jx", "1", "--kt", "1e-320", "--engine", "oracle"],
        ["point", "--model", "raw", "--jx", "1e308", "--jy", "1e308", "--kt", "1"],
        # validate runs both engines, so it takes no --engine
        ["validate", "--engine", "closed"],
        # validate needs at least one case
        ["validate", "--cases", "0"],
        ["validate", "--cases", "-3"],
        # nor a negative seed
        ["validate", "--seed", "-5"],
        # a flag given twice
        ["point", "--model", "xx", "--lambda", "0.7", "--lambda", "1.3", "--kt", "0.1"],
        # the xy crossing without a zeta, and at a zeta where there is none
        ["critical", "xy"],
        ["critical", "xy", "--zeta", "1"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_physical_input_is_a_one_line_error(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--config" in argv:
        config = tmp_path / "run.cfg"
        config.write_text(argv[-1])
        argv = [*argv[:-1], str(config)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, work",
    [
        (["point", "--model", "xx", "--lambda", "0.7", "--kt", "1", "--out", "{tmp}/no/x.csv"],
         (cli, "evaluate_point")),
        (["sweep", "--model", "xx", "--lambda", "0.7", "--var", "kt",
          "--from", "0.1", "--to", "1", "--steps", "2", "--out", "{tmp}/no/x.csv"],
         (cli, "run_sweep")),
        (["validate", "--cases", "1", "--out", "{tmp}/no/x.json"], (_checks, "run_all")),
        # a figure directory where a regular file stands, or below one
        (["figure", "fig2", "--steps", "2", "--out", "{tmp}/file"], (sweeps, "run_sweeps")),
        (["figure", "fig2", "--steps", "2", "--out", "{tmp}/file/figs"], (sweeps, "run_sweeps")),
    ],
    ids=["point", "sweep", "validate", "figure", "figure-below-a-file"],
)
def test_unwritable_output_is_a_one_line_error(argv, work, tmp_path, capsys, monkeypatch):
    # the directory is checked before any work starts
    def never(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(*work, never)
    (tmp_path / "file").write_text("")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"thermotele: error: cannot write {argv[-1]}: ")
    assert err.count("\n") == 1


# a report with a bounded check, an unbounded one and a failing one
CANNED_REPORT = {
    "checks": [
        {"name": "bounded", "passed": True, "max_error": 3.0e-14, "bound": 1e-8,
         "margin": 1e-8 - 3.0e-14, "wall_s": 0.023},
        {"name": "unbounded", "passed": True, "max_error": 1.0e-15, "wall_s": 0.353},
        {"name": "failing", "passed": False, "max_error": 0.0345, "wall_s": 0.004},
    ],
    "grid": {"n_alpha": 64, "n_gamma": 32},
    "reconciliation": {"mapping": "flip_jz+swap_phi_psi", "cached": False, "wall_s": 0.044},
}


@pytest.mark.parametrize("cached, out", [(False, "report.json"), (True, None)])
def test_validate_prints_one_line_per_check(cached, out, tmp_path, capsys, monkeypatch):
    report = {**CANNED_REPORT, "reconciliation": {**CANNED_REPORT["reconciliation"],
                                                  "cached": cached}}
    calls = []

    def canned(**kwargs):
        calls.append(kwargs)
        return 1, report

    monkeypatch.setattr(cli, "validate", canned)
    path = tmp_path / out if out else None
    argv = ["validate", "--seed", "5", "--cases", "7"] + (["--out", str(path)] if out else [])
    assert cli.main(argv) == 1
    assert calls == [{"seed": 5, "cases": 7, "report_path": path}]
    expected = [
        "PASS  bounded  (max_error=3.000e-14, margin=1.000e-08, 0.02 s)",
        "PASS  unbounded  (max_error=1.000e-15, 0.35 s)",
        "FAIL  failing  (max_error=3.450e-02, 0.00 s)",
        "quadrature grid: 64x32",
        f"reconciliation: flip_jz+swap_phi_psi ({'cached' if cached else 'computed'}, 0.04 s)",
    ] + ([f"report written to {path}"] if out else [])
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_exponents_are_silent(capsys):
    # beta times the energy gap overflows to inf; exp(-inf) = 0 is the
    # right weight, so the point runs without a numpy warning
    argv = ["point", "--model", "raw", "--jx", "4e307", "--jy", "4e307", "--kt", "1e-300",
            "--engine", "both"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["engine_disagreement"] <= 1e-8


@pytest.mark.parametrize("var, flag", [("kt", "--kt"), ("lambda", "--lambda")])
def test_swept_value_error_names_both_flags(var, flag, capsys):
    argv = ["sweep", "--model", "ising", "--lambda", "0.3", "--kt", "1", "--var", var,
            "--from", "0.1", "--to", "1", "--steps", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ") and err.count("\n") == 1
    assert flag in err.replace(f"--var {var}", "") and f"--var {var}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["point", "--model", "xxz", "--kt", "0.5"],
         "model 'xxz' needs values for --bigj, --delta and --field"),
        (["point", "--model", "ising", "--kt", "0.5"], "model 'ising' needs a value for --lambda"),
        (["point", "--model", "raw", "--jx", "1", "--lambda", "0.7", "--kt", "1"],
         "model 'raw' does not read --lambda"),
        (["sweep", "--model", "xxx", "--bigj", "1", "--kt", "1", "--var", "delta",
          "--from", "0", "--to", "1", "--steps", "3"],
         "model 'xxx' needs a value for --field; it does not read --var delta"),
        # argparse's last value once won without a word
        (["point", "--model", "xx", "--kt", "0.1", "--lambda", "0.7", "--lambda", "1.3"],
         "--lambda is given more than once"),
    ],
    ids=("xxz-missing", "ising-missing", "raw-unread", "xxx-sweep", "repeat"),
)
def test_model_errors_name_every_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"thermotele: error: {message}\n"


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
    # validate alone reads --seed
    config = tmp_path / "run.cfg"
    config.write_text("out = results.csv\n" + ("seed = 7\n" if argv == ["validate"] else ""))
    parser, commands = cli.build_parser()
    args = parser.parse_args([*argv, "--config", str(config)])
    actions = {a.dest: a for a in commands[args.command]._actions}
    args = cli._apply_config(args, actions)
    assert args.out == Path("results.csv")
    if argv == ["validate"]:
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
    [
        "kt = warm\n", "engine = fast\n", "bogus = 1\n", "no equals sign\n",
        # a value given twice, once under each of its names or twice under one
        "kt = 0.1\nlam = 0.7\nlambda = 1.3\n", "kt = 0.1\nkt = 0.2\n",
    ],
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
