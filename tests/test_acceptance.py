"""Acceptance criteria, one test per criterion.

The full battery runs once (module-scoped) through the same entry point
as ``thermotele validate`` and each test asserts its criterion's result,
printing one PASS/FAIL line (visible with ``pytest -s``).

Criterion 6 is strict-xfail: its two expected success-rate windows are
mutually inconsistent (the window near 10% at lam = 0.7 matches the
single-outcome rate q = 0.082, the window near 30% at lam = 1.3 matches
the pair rate 2q = 0.315), and the pair rate - which is what the
success-rate definition specifies - is 0.164 at lam = 0.7, outside the
[0.07, 0.13] window.  The criterion is implemented faithfully and fails honestly; see
the check's details for both rates.
"""

import json

import pytest

from thermotele import sweeps
from thermotele.sweeps import validate

CRITERIA = (
    "oracle_closed_form_agreement",
    "no_field_collapse",
    "classical_bound",
    "ideal_channel_limits",
    "infinite_temperature_limit",
    "figure2_quantitative",
    "figure_qualitative",
    "symmetry_suites",
    "deterministic_phi_rule",
    "reconciliation_resolution",
)

KNOWN_RED = {"figure2_quantitative"}


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    report_path = tmp_path_factory.mktemp("acceptance") / "report.json"
    status, report = validate(seed=20260810, cases=200, report_path=report_path)
    return status, report, report_path


def _check(report, name):
    by_name = {c["name"]: c for c in report["checks"]}
    result = by_name[name]
    mark = "PASS" if result["passed"] else "FAIL"
    print(f"ACCEPTANCE {mark}  {name}  (max_error={result['max_error']:.3e})")
    return result


def _assert_criterion(battery, name):
    _, report, _ = battery
    result = _check(report, name)
    assert result["passed"], f"{name}: max_error={result['max_error']:.3e}"
    return result


def test_criterion_01_oracle_closed_form_agreement(battery):
    result = _assert_criterion(battery, "oracle_closed_form_agreement")
    assert result["details"]["cases"] >= 200
    assert result["max_error"] <= 1e-8


def test_criterion_02_no_field_collapse(battery):
    result = _assert_criterion(battery, "no_field_collapse")
    assert result["max_error"] <= 1e-10


def test_criterion_03_classical_bound(battery):
    result = _assert_criterion(battery, "classical_bound")
    assert result["details"]["samples"] >= 10_000
    assert result["details"]["max_fidelity"] <= 2.0 / 3.0 + 1e-9
    assert abs(result["details"]["saturating"] - 2.0 / 3.0) <= 1e-10


def test_criterion_04_ideal_channel_limits(battery):
    result = _assert_criterion(battery, "ideal_channel_limits")
    assert result["max_error"] <= 1e-12


def test_criterion_05_infinite_temperature(battery):
    result = _assert_criterion(battery, "infinite_temperature_limit")
    assert result["max_error"] <= 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="the expected ~10% success window at lam=0.7 matches the single-outcome "
    "success rate (q=0.082), not the specified pair rate (2q=0.164); the "
    "lam=1.3 window matches only the pair rate, so no convention satisfies "
    "both windows (see decision ledger and check details)",
)
def test_criterion_06_figure2_quantitative(battery):
    _assert_criterion(battery, "figure2_quantitative")


def test_criterion_06_recorded_rates(battery):
    # the honest numbers behind the xfail above, pinned
    _, report, _ = battery
    details = _check(report, "figure2_quantitative")["details"]
    assert details["lam07_prob_value"] >= 0.99
    assert abs(details["lam07_pair_success"] - 0.16446) <= 5e-4
    assert 0.07 <= details["lam07_single_outcome_success"] <= 0.13
    assert 0.25 <= details["lam13_pair_success"] <= 0.35


def test_criterion_07_figure_qualitative(battery):
    result = _assert_criterion(battery, "figure_qualitative")
    assert abs(result["details"]["xxx_crossing"] - 1.0) <= 1e-9
    assert abs(result["details"]["xxz_crossing"]) <= 1e-9


def test_criterion_08_symmetry_suites(battery):
    result = _assert_criterion(battery, "symmetry_suites")
    assert result["max_error"] <= 1e-10


def test_criterion_09_deterministic_phi_rule(battery):
    result = _assert_criterion(battery, "deterministic_phi_rule")
    assert result["max_error"] <= 1e-10


def test_criterion_10_reconciliation_resolution(battery):
    result = _assert_criterion(battery, "reconciliation_resolution")
    details = result["details"]
    assert details["mapping"] == "flip_jz+swap_phi_psi"
    winners = [
        name for name, err in details["candidate_errors"].items() if err <= 1e-8
    ]
    assert winners == ["flip_jz+swap_phi_psi"]
    singlet = details["singlet_ground_case"]
    assert abs(singlet["oracle_det_psi_minus"] - 1.0) <= 1e-10
    assert abs(singlet["predicted_det_psi_minus"]["identity"] - 5.0 / 9.0) <= 1e-10


def test_report_written_and_status_reflects_known_red(battery):
    status, report, report_path = battery
    data = json.loads(report_path.read_text())
    assert data["checks"] == report["checks"]
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failing == KNOWN_RED
    assert status == 1  # honest: the known-red criterion fails validate


# criteria whose max_error is held against one tolerance, and that tolerance
BOUNDS = {
    "oracle_closed_form_agreement": 1e-8,
    "no_field_collapse": 1e-10,
    "ideal_channel_limits": 1e-12,
    "infinite_temperature_limit": 1e-5,
    "symmetry_suites": 1e-10,
    "deterministic_phi_rule": 1e-10,
    "reconciliation_resolution": 1e-8,
}


def test_report_shows_time_and_margin(battery):
    _, report, _ = battery
    for check in report["checks"]:
        assert check["wall_s"] >= 0.0
        bound = BOUNDS.get(check["name"])
        assert check.get("bound") == bound
        if bound is not None:
            assert check["margin"] == bound - check["max_error"]
            assert (check["margin"] >= 0.0) == check["passed"]
    reconciliation = report["reconciliation"]
    assert reconciliation["wall_s"] >= 0.0
    assert isinstance(reconciliation["cached"], bool)


def test_report_records_quadrature_grids(battery):
    # the oracle's default grid at the top level; the criteria that use
    # their own grid name it in their details
    _, report, report_path = battery
    assert report["grid"] == {"n_alpha": 64, "n_gamma": 64}
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("classical_bound", "infinite_temperature_limit"):
        assert by_name[name]["details"]["grid"] == {"n_alpha": 16, "n_gamma": 16}
    assert json.loads(report_path.read_text())["grid"] == report["grid"]


@pytest.mark.parametrize("cases", [0, -3])
def test_rejects_fewer_than_one_case(cases, monkeypatch):
    # one ValueError before the reconciliation or any check runs
    def unreachable():
        raise AssertionError("reconciled before the case count was checked")

    monkeypatch.setattr(sweeps, "default_reconciliation", unreachable)
    with pytest.raises(ValueError, match="at least 1 case"):
        validate(cases=cases)


@pytest.mark.parametrize("seed", [-1, -5])
def test_rejects_a_negative_seed(seed, monkeypatch):
    # one ValueError before the reconciliation or any check runs
    def unreachable():
        raise AssertionError("reconciled before the seed was checked")

    monkeypatch.setattr(sweeps, "default_reconciliation", unreachable)
    with pytest.raises(ValueError, match=f"^validate needs a seed of at least 0, got {seed}$"):
        validate(seed=seed)
