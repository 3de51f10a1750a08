import json
import math

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import det_for

from thermotele._optimize import SET_FAMILY
from thermotele.averaging import QuadratureGrid, average_all
from thermotele.closed_form import (
    CANDIDATE_MAPPINGS,
    MIN_PAIR_PROBABILITY,
    RESOLVED_MAPPING,
    Branch,
    ClosedFormInputs,
    ConventionMapping,
    _case_errors,
    f_branch,
    g_branch,
    q_rate,
    reconcile_conventions,
    reconciled_det_optimal,
    reconciled_prob_optimal,
)
from thermotele.densmat import DensityMatrix
from thermotele.spin_models import (
    HeisenbergParams,
    XXZFieldParams,
    XYFieldParams,
    from_xxz_field,
    from_xy_field,
    thermal_state,
)
from thermotele.teleport import CorrectionLabel

XXX_NO_FIELD = HeisenbergParams(2.0, 2.0, 2.0, 0.0, 0.0)
# the identity mapping evaluates the formulas as printed
PRINTED = CANDIDATE_MAPPINGS[0]


def random_inputs(rng, field=True, beta_hi=20.0):
    vals = rng.uniform(-3, 3, 5)
    if not field:
        vals[3] = vals[4] = 0.0
    p = HeisenbergParams(*vals)
    return p, ClosedFormInputs.from_heisenberg(p, float(rng.uniform(0.0, beta_hi)))


class TestQRate:
    def test_no_field_is_quarter(self):
        inp = ClosedFormInputs.from_heisenberg(XXX_NO_FIELD, 3.0)
        for phi in np.linspace(0, math.pi, 9):
            assert abs(float(q_rate(inp, phi)) - 0.25) < 1e-15

    def test_quarter_pi_is_quarter(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, inp = random_inputs(rng)
            assert abs(float(q_rate(inp, math.pi / 4)) - 0.25) < 1e-15

    def test_mirror_pairs_sum_to_half(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            _, inp = random_inputs(rng)
            phi = float(rng.uniform(0, math.pi))
            total = float(q_rate(inp, phi)) + float(q_rate(inp, math.pi / 2 - phi))
            assert abs(total - 0.5) < 1e-14

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            _, inp = random_inputs(rng)
            q = float(q_rate(inp, float(rng.uniform(0, math.pi))))
            assert -1e-15 <= q <= 0.5 + 1e-15

    def test_matches_oracle_success_rates(self):
        mapping = RESOLVED_MAPPING
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, _ = random_inputs(rng)
            beta = float(rng.uniform(0.1, 10.0))
            phi = float(rng.uniform(0, math.pi))
            av = average_all(thermal_state(p, 1 / beta).rho, phi)
            q14 = float(q_rate(mapping.inputs(p, beta), phi))
            assert abs(q14 - av.qbar[0]) < 1e-12
            assert abs(q14 - av.qbar[3]) < 1e-12


class TestFBranch:
    def test_infinite_temperature(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, _ = random_inputs(rng)
            inp = ClosedFormInputs.from_heisenberg(p, 0.0)
            for branch in Branch:
                assert abs(float(f_branch(inp, branch, 0.9)) - 0.5) < 1e-14

    def test_printed_psi_branch_singlet_limit_is_five_ninths(self):
        # the hyperbolic limit of the printed psi form at an isotropic
        # no-field point, while the protocol itself reaches fidelity 1:
        # the discrepancy that drives reconciliation
        inp = ClosedFormInputs.from_heisenberg(XXX_NO_FIELD, 20.0)
        for phi in (0.0, math.pi / 4, 1.1):
            assert abs(float(f_branch(inp, Branch.PSI, phi)) - 5.0 / 9.0) < 1e-12

    def test_oracle_reaches_one_for_same_channel(self):
        av = average_all(thermal_state(XXX_NO_FIELD, 1 / 20.0).rho, math.pi / 4)
        assert abs(det_for(av, CorrectionLabel.PSI_MINUS) - 1.0) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            _, inp = random_inputs(rng)
            for branch in Branch:
                val = float(f_branch(inp, branch, float(rng.uniform(0, math.pi))))
                assert 1.0 / 3.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestFDetOptimal:
    def test_infinite_temperature(self):
        res = reconciled_det_optimal(XXX_NO_FIELD, 0.0, PRINTED)
        assert abs(res.best_value - 0.5) < 1e-14
        assert res.success_rate == 1.0
        assert res.outcome_pair is None

    def test_equals_max_of_branch_optima(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p, inp = random_inputs(rng)
            res = reconciled_det_optimal(p, inp.beta, PRINTED)
            candidates = [
                float(f_branch(inp, b, phi))
                for b in Branch
                for phi in (math.pi / 4, 3 * math.pi / 4)
            ]
            assert abs(res.best_value - max(candidates)) < 1e-12

    def test_never_beaten_by_grid_search(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0, math.pi, 2048)
        for _ in range(50):
            p, inp = random_inputs(rng)
            res = reconciled_det_optimal(p, inp.beta, PRINTED)
            for branch in Branch:
                vals = np.asarray(f_branch(inp, branch, grid))
                assert vals.max() <= res.best_value + 1e-10

    def test_best_phi_is_quarter_pi_variant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, inp = random_inputs(rng)
            res = reconciled_det_optimal(p, inp.beta, PRINTED)
            assert res.best_phi in (math.pi / 4, 3 * math.pi / 4)


class TestGBranch:
    def test_no_field_equals_f(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            _, inp = random_inputs(rng, field=False)
            phi = float(rng.uniform(0, math.pi))
            for branch in Branch:
                assert (
                    abs(float(g_branch(inp, branch, phi)) - float(f_branch(inp, branch, phi)))
                    < 1e-13
                )

    def test_infinite_temperature(self):
        _, inp = random_inputs(np.random.default_rng(10))
        inp = ClosedFormInputs(inp.derived, inp.jz, 0.0)
        for branch in Branch:
            assert abs(float(g_branch(inp, branch, 0.3)) - 0.5) < 1e-14

    def test_field_case_matches_oracle_under_mapping(self):
        mapping = RESOLVED_MAPPING
        p = HeisenbergParams(1.0, 1.0, 0.0, 2.0, 2.0)
        beta, phi = 1.0, 0.8
        av = average_all(thermal_state(p, 1 / beta).rho, phi)
        inp = mapping.inputs(p, beta)
        for label, sign in (
            (CorrectionLabel.PHI_PLUS, 1.0),
            (CorrectionLabel.PSI_PLUS, 1.0),
            (CorrectionLabel.PHI_MINUS, -1.0),
            (CorrectionLabel.PSI_MINUS, -1.0),
        ):
            physical = (
                Branch.PHI
                if label in (CorrectionLabel.PHI_PLUS, CorrectionLabel.PHI_MINUS)
                else Branch.PSI
            )
            branch = mapping.formula_branch(physical)
            e = list(CorrectionLabel).index(label)
            got = float(g_branch(inp, branch, sign * phi))
            assert abs(got - av.fbar_cond[0, e]) < 1e-8

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            _, inp = random_inputs(rng)
            phi = float(rng.uniform(0, math.pi))
            for branch in Branch:
                a = float(g_branch(inp, branch, phi))
                b = float(g_branch(inp, branch, phi + math.pi))
                assert abs(a - b) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            _, inp = random_inputs(rng)
            val = float(g_branch(inp, Branch.PHI, float(rng.uniform(0, math.pi))))
            assert 1.0 / 3.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_degenerate_denominator_raises(self):
        # product-ground channel at beta = 50: the shifted denominator of
        # the printed phi form is absorbed to exactly zero at phi = pi/2
        p = from_xxz_field(XXZFieldParams(1.0, -0.2, 4.0))
        inp = ClosedFormInputs(p.derived(), -p.jz, 50.0)
        with pytest.raises(ValueError, match="degenerate conditional average"):
            g_branch(inp, Branch.PHI, math.pi / 2)


class TestProbOptimal:
    def test_no_field_collapses_to_deterministic(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p, inp = random_inputs(rng, field=False)
            det = reconciled_det_optimal(p, inp.beta, PRINTED)
            prob = reconciled_prob_optimal(p, inp.beta, PRINTED)
            assert abs(det.best_value - prob.best_value) < 1e-10
            assert abs(prob.success_rate - 0.5) < 1e-10

    def test_infinite_temperature(self):
        res = reconciled_prob_optimal(HeisenbergParams(1, -2, 0.5, 1, -1), 0.0, PRINTED)
        assert abs(res.best_value - 0.5) < 1e-12
        assert abs(res.success_rate - 0.5) < 1e-12

    def test_ising_low_temperature_point(self):
        # channel ground state a|00> + b|11> with a^2 ~ 0.909: near-perfect
        # conclusive teleportation at pair success 2 a^2 b^2 ~ 0.1645
        p = from_xy_field(XYFieldParams(0.7, 1.0))
        res = reconciled_prob_optimal(p, 10.0, PRINTED)
        assert res.best_value >= 0.99
        assert abs(res.success_rate - 0.164460) < 1e-4
        assert res.outcome_pair in ((1, 4), (2, 3))

    def test_success_rate_consistent_with_q(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p, inp = random_inputs(rng)
            res = reconciled_prob_optimal(p, inp.beta, PRINTED)
            phi = res.best_phi if res.outcome_pair == (1, 4) else math.pi / 2 - res.best_phi
            assert abs(res.success_rate - 2 * float(q_rate(inp, phi))) < 1e-12

    def test_postselection_never_hurts(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            p, inp = random_inputs(rng)
            prob = reconciled_prob_optimal(p, inp.beta, PRINTED)
            det = reconciled_det_optimal(p, inp.beta, PRINTED)
            assert prob.best_value >= det.best_value - 1e-10

    def test_value_dominates_branch_functions_at_best_phi(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            p, inp = random_inputs(rng)
            res = reconciled_prob_optimal(p, inp.beta, PRINTED)
            for branch in Branch:
                assert res.best_value >= float(g_branch(inp, branch, res.best_phi)) - 1e-10


class TestExtremeBeta:
    def test_no_overflow_at_beta_1000(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = HeisenbergParams(*rng.uniform(-5, 5, 5))
            inp = ClosedFormInputs.from_heisenberg(p, 1000.0)
            phi = float(rng.uniform(0, math.pi))
            assert np.isfinite(float(q_rate(inp, phi)))
            for branch in Branch:
                assert 1 / 3 - 1e-12 <= float(f_branch(inp, branch, phi)) <= 1 + 1e-12
            res = reconciled_det_optimal(p, inp.beta, PRINTED)
            assert np.isfinite(res.best_value)
            res = reconciled_prob_optimal(p, inp.beta, PRINTED)
            assert np.isfinite(res.best_value) and np.isfinite(res.success_rate)


class TestReconciliation:
    def test_unique_mapping_resolved(self):
        report = reconcile_conventions(case_count=100, seed=5)
        assert report.mapping == ConventionMapping(flip_jz=True, swap_branches=True)
        assert report.max_abs_error <= 1e-8
        losers = [
            err for name, err in report.candidate_errors.items()
            if name != report.mapping_name
        ]
        assert all(err > 0.01 for err in losers)

    def test_default_run_picks_the_pinned_mapping(self):
        # the closed engine reads RESOLVED_MAPPING without reconciling; this
        # is the run that validate's criterion 10 holds it to
        assert reconcile_conventions(150).mapping == RESOLVED_MAPPING

    def test_singlet_case_documented(self):
        report = reconcile_conventions(case_count=100, seed=6)
        case = report.singlet_case
        assert abs(case["oracle_det_psi_minus"] - 1.0) < 1e-10
        assert abs(case["predicted_det_psi_minus"]["identity"] - 5.0 / 9.0) < 1e-10
        assert (
            abs(case["predicted_det_psi_minus"]["flip_jz+swap_phi_psi"] - 1.0) < 1e-10
        )

    def test_no_field_cases_do_not_discriminate(self):
        # all four candidates coincide when jz-odd and branch-asymmetric
        # content is absent from the comparison set
        oracle = average_all(thermal_state(XXX_NO_FIELD, 10.0).rho, 0.6)
        errs = dict(zip(
            (m.name for m in CANDIDATE_MAPPINGS),
            _case_errors([(XXX_NO_FIELD, 0.1, 0.6)], [oracle], CANDIDATE_MAPPINGS)[0],
        ))
        # identity fails even here (branch labels differ), but flip-only
        # and flip+swap agree with their swap counterparts at jz ~ 0 cases
        p_no_jz = HeisenbergParams(1.0, -0.5, 0.0, 0.0, 0.0)
        oracle2 = average_all(thermal_state(p_no_jz, 0.5).rho, 0.6)
        for m in CANDIDATE_MAPPINGS:
            if not m.swap_branches:
                continue
            assert _case_errors([(p_no_jz, 2.0, 0.6)], [oracle2], (m,))[0, 0] < 1e-10

    def test_report_json_roundtrip(self):
        report = reconcile_conventions(case_count=100, seed=7)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["mapping"] == "flip_jz+swap_phi_psi"
        assert data["cases_tested"] >= 100
        assert data["seed"] == 7
        assert "tool_version" in data and "singlet_ground_case" in data

    def test_requires_enough_cases(self):
        with pytest.raises(ValueError):
            reconcile_conventions(case_count=50)


class TestReconciledLayer:
    def test_det_matches_oracle_best(self):
        mapping = RESOLVED_MAPPING
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = HeisenbergParams(*rng.uniform(-3, 3, 5))
            beta = float(rng.uniform(0.1, 10.0))
            res = reconciled_det_optimal(p, beta, mapping)
            av = average_all(thermal_state(p, 1 / beta).rho, math.pi / 4)
            av2 = average_all(thermal_state(p, 1 / beta).rho, 3 * math.pi / 4)
            oracle_best = max(av.fbar_det.max(), av2.fbar_det.max())
            assert abs(res.best_value - oracle_best) < 1e-10

    def test_prob_branch_labels_are_physical(self):
        # the XXX-with-field channel has a psi-sector (singlet-like)
        # ground state; above the crossing the best set family must be psi
        mapping = RESOLVED_MAPPING
        p = from_xxz_field(XXZFieldParams(2.0, 1.0, 8.0))
        res = reconciled_prob_optimal(p, 10.0, mapping)
        assert res.best_branch is Branch.PSI
        assert res.best_value > 0.99

    def test_inputs_invariants(self):
        with pytest.raises(ValueError):
            ClosedFormInputs.from_heisenberg(XXX_NO_FIELD, -1.0)


# ---------------------------------------------------------------------------
# _case_errors against the per-quantity loop it replaced, kept verbatim as a
# reference: one closed-form call per printed quantity, mapping and case


def predicted_qbar(p: HeisenbergParams, beta, phi, mapping: ConventionMapping):
    """Success rates (Q1..Q4) the printed q implies under ``mapping``."""
    inp = mapping.inputs(p, beta)
    q14 = float(q_rate(inp, phi))
    q23 = float(q_rate(inp, math.pi / 2.0 - phi))
    return np.array([q14, q23, q23, q14])


def predicted_det(p, beta, phi, mapping, label: CorrectionLabel) -> float:
    """Deterministic efficiency for one correction set under ``mapping``."""
    inp = mapping.inputs(p, beta)
    physical, sign = SET_FAMILY[CorrectionLabel(label)]
    return float(f_branch(inp, mapping.formula_branch(physical), sign * phi))

def predicted_cond(p, beta, phi, mapping, label: CorrectionLabel, j: int) -> float:
    """Postselected efficiency for outcome ``j`` and one correction set."""
    inp = mapping.inputs(p, beta)
    physical, sign = SET_FAMILY[CorrectionLabel(label)]
    branch = mapping.formula_branch(physical)
    angle = sign * phi if j in (1, 4) else math.pi / 2.0 - sign * phi
    return float(g_branch(inp, branch, angle))


def reference_case_errors(p, beta, phi, oracle, mapping):
    """Worst |printed - oracle| over q, f, and g entries for one case."""
    worst = 0.0
    q_pred = predicted_qbar(p, beta, phi, mapping)
    worst = max(worst, float(np.max(np.abs(q_pred - oracle.qbar))))
    for e, label in enumerate(
        (CorrectionLabel.PHI_PLUS, CorrectionLabel.PHI_MINUS,
         CorrectionLabel.PSI_PLUS, CorrectionLabel.PSI_MINUS)
    ):
        worst = max(
            worst,
            abs(predicted_det(p, beta, phi, mapping, label) - oracle.fbar_det[e]),
        )
        for j in range(1, 5):
            # conditional averages are compared only where the outcome
            # probability is large enough for double precision to resolve
            # them to the reconciliation tolerance
            if oracle.qbar[j - 1] < 0.5 * MIN_PAIR_PROBABILITY:
                continue
            worst = max(
                worst,
                abs(
                    predicted_cond(p, beta, phi, mapping, label, j)
                    - oracle.fbar_cond[j - 1, e]
                ),
            )
    return worst


class TestCaseErrors:
    def test_equals_per_quantity_reference(self):
        # reconciliation-style cases, plus strong fields with weak xy
        # couplings at low temperature (a third at phi = 0, a third at
        # pi/2), where outcome probabilities fall below the skip threshold
        # and those conditional averages are left out
        rng = np.random.default_rng(20260811)
        grid = QuadratureGrid(8, 8)
        cases, oracles = [], []
        for k in range(240):
            vals = rng.uniform(-3.0, 3.0, 5)
            beta = float(rng.uniform(0.05, 20.0))
            phi = float(rng.uniform(0.0, math.pi))
            if k % 2:
                vals[:2] *= 0.01
                vals[3:] = rng.uniform(4.0, 30.0, 2) * rng.choice([-1.0, 1.0], 2)
                beta = float(rng.uniform(5.0, 20.0))
                phi = (0.0, math.pi / 2.0, phi)[k % 3]
            p = HeisenbergParams(*vals)
            cases.append((p, beta, phi))
            oracles.append(average_all(thermal_state(p, 1.0 / beta).rho, phi, grid))
        # all cases in one batch, against one reference call per case
        errors = _case_errors(cases, oracles, CANDIDATE_MAPPINGS)
        assert errors.shape == (240, 4)
        for (p, beta, phi), oracle, row in zip(cases, oracles, errors):
            for m, err in zip(CANDIDATE_MAPPINGS, row):
                assert err == reference_case_errors(p, beta, phi, oracle, m)
        skipping = sum(bool(np.any(o.qbar < 0.5 * MIN_PAIR_PROBABILITY)) for o in oracles)
        assert skipping >= 25

    def test_mapping_subsets(self):
        p = HeisenbergParams(1.0, -0.5, 0.3, 0.8, -0.2)
        oracle = average_all(thermal_state(p, 0.7).rho, 1.1)
        every = _case_errors([(p, 1 / 0.7, 1.1)], [oracle], CANDIDATE_MAPPINGS)[0]
        for m, err in zip(CANDIDATE_MAPPINGS, every):
            assert _case_errors([(p, 1 / 0.7, 1.1)], [oracle], (m,)).tolist() == [[err]]


# ---------------------------------------------------------------------------
# properties over the extended domain: beta log-uniform in [1e-6, 1e12],
# couplings and fields up to 1e3, and sector gaps (eta or chi) near zero

_COUPLING = st.floats(-1e3, 1e3)
_NEAR_ZERO = st.floats(-1e-6, 1e-6)


@st.composite
def extended_cases(draw):
    jx, jz, ha = draw(_COUPLING), draw(_COUPLING), draw(_COUPLING)
    gap = draw(st.sampled_from(("free", "eta", "chi")))
    if gap == "free":
        jy, hb = draw(_COUPLING), draw(_COUPLING)
    elif gap == "eta":  # eta = hypot(jx - jy, ha + hb)
        jy, hb = jx + draw(_NEAR_ZERO), -ha + draw(_NEAR_ZERO)
    else:  # chi = hypot(ha - hb, jx + jy)
        jy, hb = -jx + draw(_NEAR_ZERO), ha + draw(_NEAR_ZERO)
    beta = 10.0 ** draw(st.floats(-6.0, 12.0))
    phi = draw(st.floats(0.0, math.pi))
    return HeisenbergParams(jx, jy, jz, ha, hb), beta, phi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extended_cases())
def test_extended_domain_states_rates_and_fidelities(case):
    p, beta, phi = case
    state = thermal_state(p, 1.0 / beta)
    assert isinstance(state.rho, DensityMatrix)
    DensityMatrix(state.rho.mat)  # Hermitian, unit trace, PSD
    oracle = average_all(state.rho, phi)
    assert abs(oracle.qbar.sum() - 1.0) <= 1e-12
    fidelities = np.concatenate([oracle.fbar_det, oracle.fbar_cond[oracle.defined].ravel()])
    assert np.all((fidelities >= 0.0) & (fidelities <= 1.0))
    inp = RESOLVED_MAPPING.inputs(p, beta)
    rates = q_rate(inp, [phi, math.pi / 2 - phi])
    assert abs(2.0 * float(np.sum(rates)) - 1.0) <= 1e-12
    printed = np.concatenate([f_branch(inp, b, [phi, -phi]) for b in Branch])
    assert np.all((printed >= 0.0) & (printed <= 1.0))


# Closed forms and oracle do not agree to 1e-10 everywhere on this domain.
# Each pinned example is one known loss of precision, measured against a
# 60-digit thermal state: (1) the closed forms' shifted exponents
# beta (offset - x - shift) lose a sector gap of 1e-10 against 2 |jz| = 720
# (closed 9e-7 off, oracle 3e-7 off); (2) thermal_state takes the level
# energies as -jz +/- chi and loses chi = 1e-12 against jz = 50 (oracle
# 4e-4 off); (3) g_branch takes its denominator as d0 + d1 cos(2 phi), which
# cancels when the outcome probability is 5e-8 (closed 3e-10 off).
@pytest.mark.xfail(
    strict=True, reason="closed forms and oracle lose precision at the domain edges"
)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(extended_cases())
@example((HeisenbergParams(0.0, 0.0, -360.0, -1e-10, 0.0), 2e8, 1.0))
@example((HeisenbergParams(1.0, -1.0 + 1e-12, 50.0, 25.0, 25.0), 1e12, 0.5))
@example((HeisenbergParams(0.5, 0.25, 0.7, 975.0, 0.25), 1.0, 0.0))
def test_extended_domain_closed_matches_oracle(case):
    p, beta, phi = case
    oracle = average_all(thermal_state(p, 1.0 / beta).rho, phi)
    assert _case_errors([case], [oracle], (RESOLVED_MAPPING,))[0, 0] <= 1e-10


# ---------------------------------------------------------------------------
# batches against the scalar closed forms they replaced, kept verbatim in
# scalar_reference: every entry of a batch must carry the reference's bits


def assert_batch_equals_reference(cases):
    params = [p for p, _, _ in cases]
    betas = np.array([beta for _, beta, _ in cases])
    phis = np.array([phi for _, _, phi in cases])
    batch = ClosedFormInputs.from_heisenberg(params, betas)
    singles = [ref.ClosedFormInputs.from_heisenberg(p, beta) for p, beta, _ in cases]
    pairs = list(zip(singles, phis.tolist()))

    # the shifted hyperbolic terms themselves: outside them, a sinh(beta x)/x
    # term is always multiplied by a component of its own gap x, so an error
    # in its Taylor form would not show in q, f or g; each branch's four
    # terms are compared under the reference's family names
    families = (
        (Branch.PHI, ref._phi_family,
         ("cosh_chi", "sinh_chi_ratio", "cosh_eta_jz", "sinh_eta_jz_ratio")),
        (Branch.PSI, ref._psi_family,
         ("cosh_eta", "sinh_eta_ratio", "cosh_chi_jz", "sinh_chi_jz_ratio")),
    )
    for branch, reference, names in families:
        terms = batch.terms(branch)
        for name, ref_name in zip(("cosh", "ratio", "other_cosh", "other_ratio"), names):
            assert getattr(terms, name).tolist() == [
                getattr(reference(s), ref_name) for s in singles
            ]
    assert q_rate(batch, phis).tolist() == [float(ref.q_rate(s, a)) for s, a in pairs]
    for branch in Branch:
        assert f_branch(batch, branch, phis).tolist() == [
            float(ref.f_branch(s, branch, a)) for s, a in pairs
        ]
        # g_branch raises on a collapsed denominator, so compare the entries
        # the reference can evaluate
        kept, expected = [], []
        for k, (s, a) in enumerate(pairs):
            try:
                expected.append(float(ref.g_branch(s, branch, a)))
            except ValueError:
                continue
            kept.append(k)
        kept = np.array(kept, dtype=int)
        assert g_branch(batch.take(kept), branch, phis[kept]).tolist() == expected

    printed = reconciled_det_optimal(params, betas, PRINTED)
    for got, want in zip(printed, map(ref.f_det_optimal, singles)):
        assert vars(got) == vars(want)
    printed = reconciled_prob_optimal(params, betas, PRINTED)
    for got, want in zip(printed, map(ref.prob_optimal, singles)):
        assert vars(got) == vars(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(extended_cases(), min_size=1, max_size=8))
# uncoupled qubits in a field: the two branch optima tie to 1e-13, so only
# the shared candidate rule decides between them
@example([(HeisenbergParams(0.0, 0.0, 0.0, 1.0, 1.0), 1.0, 0.5)])
# f's sin(2 phi) term rounds differently if reassociated, and a signed-zero
# sigma_j pins the +/- pi/4 angle rule at a zero coupling
@example([(HeisenbergParams(0.3, -0.5, 0.5, 0.4, -0.3), 2.0, 2.6)])
@example([(HeisenbergParams(-0.0, -0.0, 0.3, 0.5, -0.2), 1.0, 0.5)])
def test_extended_domain_batches_equal_scalar_reference(cases):
    assert_batch_equals_reference(cases)


def test_batches_straddling_the_taylor_switch_equal_scalar_reference():
    # one batch whose beta * eta (and, in the second half, beta * chi) runs
    # from 1e-9 to 1e-7 across the GAP_EPS = 1e-8 switch of sinh(beta x)/x
    small_eta = HeisenbergParams(0.7, 0.7 - 1e-9, 0.3, 0.4, -0.4)
    small_chi = HeisenbergParams(0.5, -0.5 + 1e-9, -0.2, 0.3, 0.3)
    betas = (1.0, 5.0, 9.99, 10.01, 20.0, 100.0)
    cases = [(p, beta, 0.4 + 0.1 * k) for p in (small_eta, small_chi)
             for k, beta in enumerate(betas)]
    products = [beta * p.derived().eta for p, beta, _ in cases[:6]]
    products += [beta * p.derived().chi for p, beta, _ in cases[6:]]
    assert min(products) < 1e-8 < max(products)
    assert_batch_equals_reference(cases)


def test_single_point_is_a_batch_of_one():
    mapping = RESOLVED_MAPPING
    p = HeisenbergParams(0.3, -1.2, 0.5, 0.7, -0.4)
    single = reconciled_prob_optimal(p, 2.0, mapping)
    assert [single] == reconciled_prob_optimal([p], np.array([2.0]), mapping)
    single = reconciled_det_optimal(p, 2.0, mapping)
    assert [single] == reconciled_det_optimal([p], np.array([2.0]), mapping)
    assert isinstance(single.best_value, float)
