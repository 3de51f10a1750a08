import json

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
    ],
)
def test_bad_physical_input_is_a_one_line_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("thermotele: error: ")
    assert err.count("\n") == 1
