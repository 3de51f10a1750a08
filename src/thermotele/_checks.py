"""The acceptance battery: one callable per criterion.

Each check returns a ``CheckResult`` and pins its tolerances inline; the
same functions back both ``sweeps.validate`` and the acceptance test
module, so the criteria run identically from the CLI and from pytest.
A check whose error is held against one tolerance reports it as ``bound``,
and ``run_all`` records each check's wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .averaging import QuadratureGrid
from .classical_limit import CLASSICAL_GRID, _classical_optima
from .closed_form import (
    CANDIDATE_MAPPINGS,
    RESOLVED_MAPPING,
    Branch,
    _case_errors,
    _oracle_averages,
    _random_cases,
    default_reconciliation,
    f_branch,
    reconciled_det_optimal,
    reconciled_prob_optimal,
)
from .densmat import DensityMatrix, PureQubit
from .spin_models import HeisenbergParams, block_spectrum, critical_point
from .sweeps import CLASSICAL_LIMIT, SweepSpec, _params_for, evaluate_point, run_sweeps
from .teleport import CorrectionLabel, bell_basis, correction_set, run_outcome

# criterion 9's own dense scan plus golden-section, kept independent of the
# library's exact angle optimizer
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (x, f(x)) with the bracket narrowed below ``tol``.
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, float(f(x))
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = float(f(c)), float(f(d))
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = float(f(d))
    x = c if fc >= fd else d
    return x, float(f(x))


def grid_then_golden(f, lo: float, hi: float, n: int = 4096, tol: float = 1e-12):
    """Dense-grid argmax refined by golden-section.

    ``f`` must accept a numpy array (the scan) as well as scalars (the
    refinement).  Robust for the smooth, cheap objectives used here; the
    scan guards against multiple local maxima and maxima at the ends.
    """
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(f(xs), dtype=float)
    k = int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, n - 1)]
    x, v = golden_max(f, a, b, tol=tol)
    if vals[k] > v:  # never worse than the scan itself
        return float(xs[k]), float(vals[k])
    return x, v


_BELL_KETS = {
    CorrectionLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    CorrectionLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    details: dict = field(default_factory=dict)
    bound: float | None = None  # the one tolerance max_error is held to
    wall_s: float | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "max_error": float(self.max_error),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
            "wall_s": self.wall_s,
        }
        if self.bound is not None:
            out["bound"] = self.bound
            out["margin"] = self.bound - float(self.max_error)
        return out

    @classmethod
    def within(cls, name: str, max_error: float, bound: float, details=None):
        """A check that passes when ``max_error`` is at most ``bound``."""
        return cls(name, max_error <= bound, max_error, details or {}, bound)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _random_params(rng, with_field=True) -> HeisenbergParams:
    vals = rng.uniform(-3.0, 3.0, 5)
    if not with_field:
        vals[3] = vals[4] = 0.0
    return HeisenbergParams(*vals)


def check_oracle_closed_agreement(seed: int, cases: int = 200) -> CheckResult:
    """Criterion 1: q, f, g vs the quadrature oracle to 1e-8 under the
    resolved mapping, on random tuples with |j|,|h| <= 3, beta in (0,20]."""
    drawn = _random_cases(np.random.default_rng(seed), cases, 0.02)
    oracles = _oracle_averages(drawn)
    worst = float(_case_errors(drawn, oracles, (RESOLVED_MAPPING,)).max())
    return CheckResult.within(
        "oracle_closed_form_agreement",
        worst,
        1e-8,
        {"cases": cases, "mapping": RESOLVED_MAPPING.name},
    )


def check_no_field_collapse(seed: int, cases: int = 50) -> CheckResult:
    """Criterion 2: with no external field the probabilistic and
    deterministic optima coincide to 1e-10."""
    rng = np.random.default_rng(seed)
    params, betas = [], []
    for _ in range(cases):
        params.append(_random_params(rng, with_field=False))
        betas.append(float(rng.uniform(0.02, 20.0)))
    dets = reconciled_det_optimal(params, np.array(betas))
    probs = reconciled_prob_optimal(params, np.array(betas))
    worst = max(abs(d.best_value - p.best_value) for d, p in zip(dets, probs))
    return CheckResult.within("no_field_collapse", worst, 1e-10, {"cases": cases})


def check_classical_bound(seed: int, samples: int = 10_000) -> CheckResult:
    """Criterion 3: oracle-optimal deterministic fidelity over random
    separable channels stays below 2/3 + 1e-9; the saturating product
    channel reaches 2/3 to 1e-10."""
    optima = _classical_optima(samples, seed, CLASSICAL_GRID)
    best, saturating = float(np.max(optima)), float(optima[0])
    sat_err = abs(saturating - CLASSICAL_LIMIT)
    passed = best <= CLASSICAL_LIMIT + 1e-9 and sat_err <= 1e-10
    return CheckResult(
        "classical_bound",
        passed,
        max(best - CLASSICAL_LIMIT, sat_err),
        {
            "samples": samples,
            "max_fidelity": best,
            "saturating": saturating,
            "grid": asdict(CLASSICAL_GRID),
        },
    )


def check_ideal_channel_limits(seed: int) -> CheckResult:
    """Criterion 4: Bell channels with matching sets teleport perfectly at
    phi = pi/4; the maximally mixed channel gives 1/2 for all sets/phi."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    basis = bell_basis(math.pi / 4.0)
    inputs = [
        PureQubit(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(5)
    ]
    for label, ket in _BELL_KETS.items():
        channel = DensityMatrix.from_pure(ket)
        cset = correction_set(label)
        for q in inputs:
            for j in (1, 2, 3, 4):
                out = run_outcome(q, channel, basis, cset, j)
                worst = max(worst, abs(out.fidelity - 1.0), abs(out.probability - 0.25))
    mixed = DensityMatrix.maximally_mixed(4)
    for label in CorrectionLabel:
        cset = correction_set(label)
        for phi in (0.0, math.pi / 8, math.pi / 4, 1.0, 2.5):
            b = bell_basis(phi)
            for q in inputs[:3]:
                for j in (1, 2, 3, 4):
                    out = run_outcome(q, mixed, b, cset, j)
                    # the outcome probability is input-dependent away from
                    # phi = pi/4; only the fidelity is pinned at 1/2
                    worst = max(worst, abs(out.fidelity - 0.5))
                    if abs(phi - math.pi / 4) < 1e-15:
                        worst = max(worst, abs(out.probability - 0.25))
    return CheckResult.within("ideal_channel_limits", worst, 1e-12)


_INF_T_MODELS = (
    ("ising", {"lam": 0.7}),
    ("xx", {"lam": 0.7}),
    ("xy", {"lam": 0.7, "zeta": 0.5}),
    ("xxx", {"bigj": 1.0, "field": 8.0}),
    ("xxz", {"bigj": 1.0, "delta": 0.5, "field": 4.0}),
)


def check_infinite_temperature() -> CheckResult:
    """Criterion 5: at kT = 1e6 both protocol efficiencies are 0.5 +/- 1e-5."""
    grid = QuadratureGrid(16, 16)
    worst = 0.0
    for model, values in _INF_T_MODELS:
        for engine in ("closed", "oracle"):
            r = evaluate_point(model, values, 1e6, engine, grid)
            worst = max(worst, abs(r.det_value - 0.5), abs(r.prob_value - 0.5))
    return CheckResult.within(
        "infinite_temperature_limit", worst, 1e-5, {"grid": asdict(grid)}
    )


def check_figure2_quantitative() -> CheckResult:
    """Criterion 6, as specified: at kT = 0.1 the Ising channel gives
    probabilistic efficiency >= 0.99 with pair success rate in
    [0.07, 0.13] at lam = 0.7 and in [0.25, 0.35] at lam = 1.3.

    Known failure: at lam = 0.7 the channel's low-temperature ground state
    is a|00> + b|11> with a^2 ~ 0.909, and the fidelity-optimal protocol
    postselects the outcome pair with success rate 2 a^2 b^2 ~ 0.164.  The
    [0.07, 0.13] window (an expected rate near 10%) matches only the
    single-outcome rate q ~ 0.082, while the lam = 1.3 window matches the
    pair rate, so no one convention satisfies both.  The pair rate is what
    the success-rate definition specifies; both rates land in details.
    """
    p07, p13 = (evaluate_point("ising", {"lam": lam}, 0.1) for lam in (0.7, 1.3))
    ok_eff = p07.prob_value >= 0.99
    ok_07 = 0.07 <= p07.success_rate <= 0.13
    ok_13 = 0.25 <= p13.success_rate <= 0.35
    # each term is positive only where its bound is missed
    err = max(
        0.0,
        0.99 - p07.prob_value,
        0.07 - p07.success_rate, p07.success_rate - 0.13,
        0.25 - p13.success_rate, p13.success_rate - 0.35,
    )
    return CheckResult(
        "figure2_quantitative",
        ok_eff and ok_07 and ok_13,
        err,
        {
            "lam07_prob_value": p07.prob_value,
            "lam07_pair_success": p07.success_rate,
            "lam07_single_outcome_success": 0.5 * p07.success_rate,
            "lam13_prob_value": p13.prob_value,
            "lam13_pair_success": p13.success_rate,
        },
    )


def _sector_gap(j: float, delta: float, h: float) -> float:
    """``block_spectrum``'s lowest phi minus lowest psi level of xxz at (J, Delta, h)."""
    p, _ = _params_for("xxz", {"bigj": j, "delta": delta, "field": h})
    _, phi_ground, _, psi_ground = block_spectrum(p)
    return phi_ground.energy - psi_ground.energy


def check_figure_qualitative() -> CheckResult:
    """Criterion 7: (a) XX at lam = 0.7 keeps the deterministic protocol
    classical while the probabilistic one beats 2/3 and grows with kT on
    some interval; (b) XXX level crossing at J = 1 for h = 8 and no
    quantum advantage for J < 0; (c) XXZ crossing at Delta = 0.  Across
    both crossings -/+ 1e-9, ``block_spectrum``'s sector gap changes sign."""
    details = {}
    xx, *xxx_negative_j = run_sweeps([
        SweepSpec("xx", {"lam": 0.7}, "kt", 0.05, 3.0, 40),
        *(
            SweepSpec("xxx", {"bigj": j, "field": 8.0}, "kt", 0.05, 10.0, 25)
            for j in (-0.5, -1.5)
        ),
    ])
    det = np.array([r.det_value for r in xx])
    prob = np.array([r.prob_value for r in xx])
    a_det_classical = bool(np.all(det <= CLASSICAL_LIMIT + 1e-9))
    a_prob_beats = bool(np.any(prob > CLASSICAL_LIMIT))
    a_increases = bool(np.any(np.diff(prob) > 1e-9))
    details["xx_max_det"] = float(det.max())
    details["xx_max_prob"] = float(prob.max())

    jc = critical_point("xxx_field", field_h=8.0)
    b_gap_sign = _sector_gap(jc - 1e-9, 1.0, 8.0) * _sector_gap(jc + 1e-9, 1.0, 8.0) < 0.0
    b_crossing = abs(jc - 1.0) <= 1e-9 and b_gap_sign
    details["xxx_crossing"] = jc
    details["xxx_gap_changes_sign"] = b_gap_sign
    b_negative_j = all(
        max(r.det_value, r.prob_value) <= CLASSICAL_LIMIT + 1e-9
        for records in xxx_negative_j
        for r in records
    )

    dc = critical_point("xxz_field", exchange_j=1.0, field_h=4.0)
    c_gap_sign = _sector_gap(1.0, dc - 1e-9, 4.0) * _sector_gap(1.0, dc + 1e-9, 4.0) < 0.0
    c_crossing = abs(dc - 0.0) <= 1e-9 and c_gap_sign
    details["xxz_crossing"] = dc
    details["xxz_gap_changes_sign"] = c_gap_sign

    passed = (
        a_det_classical
        and a_prob_beats
        and a_increases
        and b_crossing
        and b_negative_j
        and c_crossing
    )
    err = max(abs(jc - 1.0), abs(dc))
    return CheckResult("figure_qualitative", passed, err, details)


def check_symmetries(seed: int, cases: int = 100) -> CheckResult:
    """Criterion 8: Q1 = Q4, Q2 = Q3, F1 = F4, F2 = F3, sum Q = 1, all to
    1e-10, on random thermal channels."""
    averages = _oracle_averages(_random_cases(np.random.default_rng(seed), cases, 0.02, 10.0))
    qbar, fbar_cond, defined = averages.qbar, averages.fbar_cond, averages.defined
    gaps = [
        np.abs(qbar[:, 0] - qbar[:, 3]),
        np.abs(qbar[:, 1] - qbar[:, 2]),
        np.abs(qbar.sum(axis=1) - 1.0),
    ]
    # outcomes 1 and 4, and 2 and 3, compared only where both are defined
    for j, k in ((0, 3), (1, 2)):
        both = defined[:, j] & defined[:, k]
        gaps.append(np.abs(fbar_cond[both, j] - fbar_cond[both, k]).ravel())
    worst = float(max(gap.max(initial=0.0) for gap in gaps))
    return CheckResult.within("symmetry_suites", worst, 1e-10, {"cases": cases})


def check_deterministic_phi_rule(seed: int, cases: int = 200) -> CheckResult:
    """Criterion 9: a dense phi scan never beats the +/- pi/4 closed-form
    deterministic optimum by more than 1e-10."""
    rng = np.random.default_rng(seed)
    drawn = [(_random_params(rng), float(rng.uniform(0.0, 20.0))) for _ in range(cases)]
    # the identity mapping evaluates the formulas as printed
    printed = CANDIDATE_MAPPINGS[0]
    params, betas = zip(*drawn)
    optima = reconciled_det_optimal(params, np.array(betas), printed)
    worst = 0.0
    for (p, beta), opt in zip(drawn, optima):
        inp = printed.inputs(p, beta)
        for branch in (Branch.PHI, Branch.PSI):
            _, val = grid_then_golden(
                lambda x, b=branch: f_branch(inp, b, x), 0.0, math.pi, n=4096
            )
            worst = max(worst, val - opt.best_value)
    return CheckResult.within("deterministic_phi_rule", worst, 1e-10, {"cases": cases})


def check_reconciliation() -> CheckResult:
    """Criterion 10: reconciliation resolves to exactly one mapping at
    1e-8, the ``RESOLVED_MAPPING`` that the closed engine uses, and its
    report carries the discriminating singlet-ground case."""
    report = default_reconciliation()
    singlet = report.singlet_case
    identity = singlet["predicted_det_psi_minus"]["identity"]
    discriminates = abs(identity - singlet["oracle_det_psi_minus"]) > 0.1
    bound = 1e-8
    passed = report.mapping == RESOLVED_MAPPING and report.max_abs_error <= bound and discriminates
    return CheckResult(
        "reconciliation_resolution",
        passed,
        report.max_abs_error,
        {
            "mapping": report.mapping_name,
            "candidate_errors": report.candidate_errors,
            "singlet_ground_case": singlet,
        },
        bound,
    )


def run_all(seed: int = 20260810, cases: int = 200):
    """Run criteria 1..10 in order, each random one on its own derived
    seed, each result carrying its wall time."""
    checks = (
        lambda: check_oracle_closed_agreement(seed + 1, cases),
        lambda: check_no_field_collapse(seed + 2),
        lambda: check_classical_bound(seed + 3),
        lambda: check_ideal_channel_limits(seed + 4),
        check_infinite_temperature,
        check_figure2_quantitative,
        check_figure_qualitative,
        lambda: check_symmetries(seed + 8),
        lambda: check_deterministic_phi_rule(seed + 9),
        check_reconciliation,
    )
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        result.wall_s = time.perf_counter() - start
        results.append(result)
    return results
