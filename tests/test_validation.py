"""Plumbing tests for the validate entry point and check machinery."""

import numpy as np

import thermotele._checks as checks
import thermotele.closed_form as closed_form
import thermotele.sweeps as sweeps
from thermotele.sweeps import validate


def test_injected_fault_detected(monkeypatch):
    # perturbing a closed-form evaluation by 1e-3 must break the
    # oracle agreement check, and the check must report that error
    original = closed_form.q_rate

    def skewed(inp, phi):
        return original(inp, phi) + 1e-3

    monkeypatch.setattr(closed_form, "q_rate", skewed)
    result = checks.check_oracle_closed_agreement(seed=1, cases=20)
    assert not result.passed
    assert abs(result.max_error - 1e-3) <= 1e-12


def test_checks_are_seed_stable():
    a = checks.check_symmetries(seed=99, cases=10)
    b = checks.check_symmetries(seed=99, cases=10)
    assert a.to_dict() == b.to_dict()


def test_validate_report_plumbing(monkeypatch, tmp_path):
    canned = [
        checks.CheckResult("alpha", True, 1e-12, {"cases": 1}),
        checks.CheckResult("beta", False, 0.5, {}),
    ]
    monkeypatch.setattr(checks, "run_all", lambda seed, cases: canned)
    path = tmp_path / "report.json"
    status, report = validate(seed=3, cases=100, report_path=path)
    assert status == 1
    assert report["passed"] is False
    assert path.exists()
    names = [c["name"] for c in report["checks"]]
    assert names == ["alpha", "beta"]
    assert report["reconciliation"]["mapping"] == "flip_jz+swap_phi_psi"


def test_validate_reports_cached_reconciliation(monkeypatch):
    closed_form.default_reconciliation()
    monkeypatch.setattr(checks, "run_all", lambda seed, cases: [])
    _, report = validate(seed=3, cases=100)
    assert report["reconciliation"]["cached"] is True
    assert 0.0 <= report["reconciliation"]["wall_s"] < 0.1


def test_check_result_margin():
    d = checks.CheckResult("delta", True, 2.5e-9, {}, bound=1e-8, wall_s=0.5).to_dict()
    assert d["bound"] == 1e-8 and d["margin"] == 1e-8 - 2.5e-9 and d["wall_s"] == 0.5
    d = checks.CheckResult("epsilon", False, 0.3, {}).to_dict()
    assert "bound" not in d and "margin" not in d and d["wall_s"] is None


def test_validate_all_green_status(monkeypatch):
    canned = [checks.CheckResult("alpha", True, 0.0, {})]
    monkeypatch.setattr(checks, "run_all", lambda seed, cases: canned)
    status, report = validate(seed=3, cases=100)
    assert status == 0 and report["passed"] is True


def test_oracle_sweep_on_its_own_grid():
    records = sweeps.run_sweep(
        sweeps.SweepSpec(
            "ising", {"lam": 0.7}, "kt", 0.1, 1.0, 3, engine="oracle",
            grid=sweeps.QuadratureGrid(16, 16),
        )
    )
    assert len(records) == 3


def test_closed_engine_never_reconciles(monkeypatch, tmp_path):
    # the closed forms read the pinned RESOLVED_MAPPING; only validate runs
    # the oracle reconciliation
    def unavailable(*args, **kwargs):
        raise AssertionError("the closed engine ran the reconciliation")

    monkeypatch.setattr(closed_form, "_DEFAULT_REPORT", None)
    monkeypatch.setattr(closed_form, "reconcile_conventions", unavailable)
    spec = sweeps.SweepSpec("ising", {"lam": 0.7}, "kt", 0.1, 1.0, 3, engine="closed")
    assert len(sweeps.run_sweep(spec)) == 3
    record = sweeps.evaluate_point("xx", {"lam": 0.7}, 0.1, engine="both")
    assert record.engine_disagreement <= 1e-8
    assert sweeps.reproduce_figure("fig2", tmp_path, steps=2)
    assert closed_form._DEFAULT_REPORT is None


def test_check_result_serializable():
    result = checks.CheckResult(
        "gamma", True, 1e-9, {"arr": np.array([1.0, 2.0]), "n": np.int64(3)}
    )
    d = result.to_dict()
    assert d["details"]["arr"] == [1.0, 2.0]
    assert d["details"]["n"] == 3
