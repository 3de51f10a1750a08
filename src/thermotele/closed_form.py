"""Closed-form success rates and efficiencies, plus convention reconciliation.

The analytic expressions evaluated here (``q_rate``, ``f_branch``,
``g_branch`` and their optimizers) are transcribed literally, including
their branch superscripts and the sign of the zz coupling as printed.
A desk derivation of the block spectra shows such printed conventions need
not line up with the density-matrix protocol itself, so nothing user-facing
trusts the transcription directly: :func:`reconcile_conventions` compares
the printed forms against the quadrature oracle under four candidate symbol
transformations (identity, jz sign flip, phi/psi branch swap, both) and the
``reconciled_*`` wrappers evaluate everything under the unique surviving
mapping.

All hyperbolic combinations are evaluated in shifted exponential form
(every exponent is measured from the largest one appearing), so inverse
temperatures up to ~1e3 never overflow, and the removable 0/0 singularities
at beta eta -> 0 or beta chi -> 0 are handled by a second-order Taylor
expansion of sinh(beta x)/x.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _version
from ._optimize import maximize_ratio
from .averaging import DEFAULT_GRID, QuadratureGrid, average_all
from .spin_models import DerivedParams, HeisenbergParams, thermal_state
from .teleport import CorrectionLabel

# beta times a gap parameter below which sinh(beta x)/x switches to its
# Taylor expansion
GAP_EPS = 1e-8
# conditional averages with a postselection denominator below this are degenerate
DENOM_EPS = 1e-300
# a candidate convention mapping must beat this against the oracle
RESOLUTION_TOL = 1e-8
# below this pair probability, conditional averages carry double-precision
# cancellation noise larger than the accuracy targets, so optimizers (and
# oracle comparisons) treat such angles as unreachable
MIN_PAIR_PROBABILITY = 1e-7
# angles whose fidelity sits within this of the optimum count as ties and
# are broken in favor of the larger success rate (conditional fidelities
# can plateau exactly, e.g. through a product-state channel)
SUCCESS_TIE_TOL = 1e-13


class Branch(Enum):
    PHI = "phi"
    PSI = "psi"


@dataclass(frozen=True)
class ClosedFormInputs:
    """Arguments of the printed expressions: sector parameters, jz, beta.

    ``derived`` and ``jz`` are deliberately independent fields so that a
    convention mapping can flip the sign of jz without touching the gap
    parameters (which do not involve jz).
    """

    derived: DerivedParams
    jz: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    @classmethod
    def from_heisenberg(cls, p: HeisenbergParams, beta: float) -> "ClosedFormInputs":
        return cls(derived=p.derived(), jz=p.jz, beta=beta)


# ---------------------------------------------------------------------------
# shifted hyperbolic building blocks


def _shifted_cosh(beta, x, offset, shift):
    """exp(-beta shift) * exp(beta offset) * cosh(beta x), overflow-free."""
    return 0.5 * (
        math.exp(beta * (offset + x - shift)) + math.exp(beta * (offset - x - shift))
    )


def _shifted_sinh_ratio(beta, x, offset, shift):
    """exp(-beta shift) * exp(beta offset) * sinh(beta x)/x with x -> 0 limit."""
    if beta * x < GAP_EPS:
        return beta * math.exp(beta * (offset - shift)) * (1.0 + (beta * x) ** 2 / 6.0)
    return (
        math.exp(beta * (offset + x - shift)) - math.exp(beta * (offset - x - shift))
    ) / (2.0 * x)


@dataclass(frozen=True)
class _PhiFamilyTerms:
    """Shared pieces of q, f^phi, g^phi after dividing out eta*chi.

    cosh_chi etc. all carry the common factor exp(-beta*shift) with
    shift = max(chi, 2 jz + eta), so the denominator cosh_chi + cosh_eta_jz
    is always in [1/2, 2] and ratios are safe at any beta.
    """

    cosh_chi: float          # cosh(beta chi)
    sinh_chi_ratio: float    # sinh(beta chi)/chi
    cosh_eta_jz: float       # e^{2 beta jz} cosh(beta eta)
    sinh_eta_jz_ratio: float  # e^{2 beta jz} sinh(beta eta)/eta


@dataclass(frozen=True)
class _PsiFamilyTerms:
    cosh_eta: float          # cosh(beta eta)
    sinh_eta_ratio: float    # sinh(beta eta)/eta
    cosh_chi_jz: float       # e^{-2 beta jz} cosh(beta chi)
    sinh_chi_jz_ratio: float  # e^{-2 beta jz} sinh(beta chi)/chi


def _phi_family(inp: ClosedFormInputs) -> _PhiFamilyTerms:
    d, b, jz = inp.derived, inp.beta, inp.jz
    shift = max(d.chi, 2.0 * jz + d.eta)
    return _PhiFamilyTerms(
        cosh_chi=_shifted_cosh(b, d.chi, 0.0, shift),
        sinh_chi_ratio=_shifted_sinh_ratio(b, d.chi, 0.0, shift),
        cosh_eta_jz=_shifted_cosh(b, d.eta, 2.0 * jz, shift),
        sinh_eta_jz_ratio=_shifted_sinh_ratio(b, d.eta, 2.0 * jz, shift),
    )


def _psi_family(inp: ClosedFormInputs) -> _PsiFamilyTerms:
    d, b, jz = inp.derived, inp.beta, inp.jz
    shift = max(d.eta, d.chi - 2.0 * jz)
    return _PsiFamilyTerms(
        cosh_eta=_shifted_cosh(b, d.eta, 0.0, shift),
        sinh_eta_ratio=_shifted_sinh_ratio(b, d.eta, 0.0, shift),
        cosh_chi_jz=_shifted_cosh(b, d.chi, -2.0 * jz, shift),
        sinh_chi_jz_ratio=_shifted_sinh_ratio(b, d.chi, -2.0 * jz, shift),
    )


# ---------------------------------------------------------------------------
# literal printed expressions


def q_rate(inp: ClosedFormInputs, phi):
    """Success rate q(phi) of outcomes 1 and 4; outcomes 2 and 3 carry
    q(pi/2 - phi).  Accepts a scalar or array ``phi``."""
    d = inp.derived
    t = _phi_family(inp)
    num = d.delta_h * t.sinh_chi_ratio + d.sigma_h * t.sinh_eta_jz_ratio
    den = 4.0 * (t.cosh_chi + t.cosh_eta_jz)
    return 0.25 - np.cos(2.0 * np.asarray(phi, dtype=float)) * num / den


def f_branch(inp: ClosedFormInputs, branch: Branch, phi):
    """Deterministic efficiency of the printed phi- or psi-branch at
    measurement angle ``phi``."""
    d = inp.derived
    sin2 = np.sin(2.0 * np.asarray(phi, dtype=float))
    if Branch(branch) is Branch.PHI:
        t = _phi_family(inp)
        num = t.cosh_chi - d.sigma_j * sin2 * t.sinh_chi_ratio
        den = 3.0 * (t.cosh_chi + t.cosh_eta_jz)
    else:
        t = _psi_family(inp)
        num = t.cosh_eta - d.delta_j * sin2 * t.sinh_eta_ratio
        den = 3.0 * (t.cosh_chi_jz + t.cosh_eta)
    return 1.0 / 3.0 + num / den


def _branch_det_opt(inp: ClosedFormInputs, branch: Branch):
    """Printed optimum of one deterministic branch under the +/- pi/4 rule.

    The phi-branch keys on the sign of sigma_j, the psi-branch on delta_j;
    a non-negative key selects 3pi/4 (equivalent to -pi/4).
    """
    d = inp.derived
    if branch is Branch.PHI:
        t = _phi_family(inp)
        value = 1.0 / 3.0 + (t.cosh_chi + abs(d.sigma_j) * t.sinh_chi_ratio) / (
            3.0 * (t.cosh_chi + t.cosh_eta_jz)
        )
        key = d.sigma_j
    else:
        t = _psi_family(inp)
        value = 1.0 / 3.0 + (t.cosh_eta + abs(d.delta_j) * t.sinh_eta_ratio) / (
            3.0 * (t.cosh_chi_jz + t.cosh_eta)
        )
        key = d.delta_j
    best_phi = math.pi / 4.0 if key <= 0.0 else 3.0 * math.pi / 4.0
    return float(value), best_phi


def _g_coefficients(inp: ClosedFormInputs, branch: Branch):
    """Numerator and denominator of the printed g ratio as (a0, a1, a2)
    triples, a0 + a1 cos(2 phi) + a2 sin(2 phi), plus the overall scale.

    g = 1/3 + num / (3 den), and den / (2 * scale) is the postselected
    pair's success rate.
    """
    d = inp.derived
    if Branch(branch) is Branch.PHI:
        t = _phi_family(inp)
        num = (t.cosh_chi, -t.sinh_chi_ratio * d.delta_h, -t.sinh_chi_ratio * d.sigma_j)
        scale = t.cosh_chi + t.cosh_eta_jz
        tilt = d.delta_h * t.sinh_chi_ratio + d.sigma_h * t.sinh_eta_jz_ratio
    else:
        t = _psi_family(inp)
        num = (t.cosh_eta, -t.sinh_eta_ratio * d.sigma_h, -t.sinh_eta_ratio * d.delta_j)
        scale = t.cosh_chi_jz + t.cosh_eta
        tilt = d.delta_h * t.sinh_chi_jz_ratio + d.sigma_h * t.sinh_eta_ratio
    return num, (scale, -tilt, 0.0), scale


def _single_angle(coef):
    """(a0, a1, a2) in 2 phi as the optimizer's (u, v, s) in phi."""
    return coef[0] + coef[1], coef[0] - coef[1], 2.0 * coef[2]


def g_branch(inp: ClosedFormInputs, branch: Branch, phi):
    """Postselected efficiency of the printed phi- or psi-branch.

    Raises if the postselection denominator collapses (zero average
    probability for the postselected pair).
    """
    (n0, n1, n2), (d0, d1, _), _ = _g_coefficients(inp, branch)
    phi = np.asarray(phi, dtype=float)
    cos2, sin2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    den = d0 + d1 * cos2
    if np.any(den < DENOM_EPS):
        raise ValueError("degenerate conditional average")
    return 1.0 / 3.0 + (n0 + n1 * cos2 + n2 * sin2) / (3.0 * den)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one protocol over the measurement angle.

    ``outcome_pair`` is the postselected pair for the probabilistic
    protocol and ``None`` for the deterministic one (all outcomes kept).
    """

    best_value: float
    best_phi: float
    best_branch: Branch
    success_rate: float
    outcome_pair: tuple | None = None


def _printed(branch: Branch) -> Branch:
    return branch


def _det_optimum(inp: ClosedFormInputs, formula_branch) -> OptimizationResult:
    """Best of the two branch optima; ``formula_branch`` maps each
    reported branch to the printed one that describes it."""
    best = None
    for branch in (Branch.PHI, Branch.PSI):
        value, phi = _branch_det_opt(inp, formula_branch(branch))
        if best is None or value > best.best_value:
            best = OptimizationResult(value, phi, branch, 1.0, None)
    return best


def _prob_optimum(inp: ClosedFormInputs, formula_branch) -> OptimizationResult:
    """Exact maximum of g over phi and both branches.

    Angles whose pair probability falls below MIN_PAIR_PROBABILITY are
    excluded, and fidelities within SUCCESS_TIE_TOL of the top go to the
    larger success rate.  Pair (2, 3) at phi has the efficiency of pair
    (1, 4) at pi/2 - phi, so optimizing pair (1, 4) over all angles
    covers both and the result reports pair (1, 4).
    """
    best = None
    for branch in (Branch.PHI, Branch.PSI):
        # g = 1/3 + num/(3 den) rises with num/den, so maximize the ratio
        # itself, with the tie window scaled to match
        num, den, scale = _g_coefficients(inp, formula_branch(branch))
        opt = maximize_ratio(
            _single_angle(num),
            _single_angle(den),
            floor=2.0 * MIN_PAIR_PROBABILITY * scale,
            tie_tol=3.0 * SUCCESS_TIE_TOL,
        )
        if best is None or opt.value > best[0].value:
            best = (opt, branch)
    opt, branch = best
    rate = 2.0 * float(q_rate(inp, opt.phi))
    return OptimizationResult(1.0 / 3.0 + opt.value / 3.0, opt.phi, branch, rate, (1, 4))


def f_det_optimal(inp: ClosedFormInputs) -> OptimizationResult:
    """Best deterministic efficiency over both printed branches.

    The optimum always sits at phi = +/- pi/4 (the standard Bell basis);
    only the sign, fixed by sigma_j and delta_j, varies.
    """
    return _det_optimum(inp, _printed)


def prob_optimal(inp: ClosedFormInputs) -> OptimizationResult:
    """Best postselected efficiency over both printed branches and phi.

    The returned success rate is that of the postselected outcome pair,
    2 q(phi_opt).
    """
    return _prob_optimum(inp, _printed)


# ---------------------------------------------------------------------------
# convention reconciliation against the quadrature oracle


@dataclass(frozen=True)
class ConventionMapping:
    """A candidate symbol transformation applied to the printed formulas.

    ``flip_jz`` evaluates them at -jz; ``swap_branches`` exchanges which
    printed branch (phi or psi) describes which physical correction-set
    family.
    """

    flip_jz: bool
    swap_branches: bool

    @property
    def name(self) -> str:
        parts = []
        if self.flip_jz:
            parts.append("flip_jz")
        if self.swap_branches:
            parts.append("swap_phi_psi")
        return "+".join(parts) if parts else "identity"

    def inputs(self, p: HeisenbergParams, beta: float) -> ClosedFormInputs:
        jz = -p.jz if self.flip_jz else p.jz
        return ClosedFormInputs(derived=p.derived(), jz=jz, beta=beta)

    def formula_branch(self, physical: Branch) -> Branch:
        if not self.swap_branches:
            return physical
        return Branch.PSI if physical is Branch.PHI else Branch.PHI


CANDIDATE_MAPPINGS = (
    ConventionMapping(False, False),
    ConventionMapping(True, False),
    ConventionMapping(False, True),
    ConventionMapping(True, True),
)

# physical correction-set label -> (branch family, angle sign)
_SET_BRANCH_SIGN = {
    CorrectionLabel.PHI_PLUS: (Branch.PHI, 1.0),
    CorrectionLabel.PHI_MINUS: (Branch.PHI, -1.0),
    CorrectionLabel.PSI_PLUS: (Branch.PSI, 1.0),
    CorrectionLabel.PSI_MINUS: (Branch.PSI, -1.0),
}


# the one analytic limit that cleanly separates the candidates: an
# isotropic no-field channel whose ground state is the singlet; the
# protocol reaches fidelity 1 there while the printed psi-branch gives 5/9
_SINGLET_CASE = (HeisenbergParams(1.0, 1.0, 1.0, 0.0, 0.0), 20.0, math.pi / 4.0)
# a zz-coupled channel in a strong field; only one candidate survives both
_XXX_FIELD_CASE = (HeisenbergParams(4.0, 4.0, 4.0, -4.0, -4.0), 4.0, math.pi / 3.0)


@dataclass(frozen=True)
class ReconciliationReport:
    """Outcome of discriminating the candidate mappings against the oracle."""

    mapping: ConventionMapping | None
    max_abs_error: float
    cases_tested: int
    seed: int
    candidate_errors: dict
    singlet_case: dict
    tool_version: str = _version.__version__

    @property
    def resolved(self) -> bool:
        return self.mapping is not None

    @property
    def mapping_name(self) -> str:
        return self.mapping.name if self.mapping else "unresolved"

    def to_dict(self) -> dict:
        return {
            "report_version": 1,
            "tool_version": self.tool_version,
            "mapping": self.mapping_name,
            "max_abs_error": self.max_abs_error,
            "cases_tested": self.cases_tested,
            "seed": self.seed,
            "candidate_errors": dict(self.candidate_errors),
            "singlet_ground_case": dict(self.singlet_case),
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _case_errors(p, beta, phi, oracle, mappings):
    """Worst |printed - oracle| over q, f and g entries of one case, one
    value per mapping in ``mappings``.

    The mappings differ only by the sign of jz and by which printed branch
    describes which physical family, so each printed quantity is evaluated
    once per (jz sign, printed branch) on every angle the case needs, and
    each mapping reads its predictions from those arrays.  A family's two
    sets are its + and - angle signs (``_SET_BRANCH_SIGN``), so stacking
    the families in ``Branch`` order gives the oracle's set columns.
    """
    # conditional averages are compared only where the outcome probability
    # is large enough for double precision to resolve them to the
    # reconciliation tolerance; skipped outcomes are never evaluated
    kept = [j for j in range(1, 5) if oracle.qbar[j - 1] >= 0.5 * MIN_PAIR_PROBABILITY]
    oracle_cond = oracle.fbar_cond[[j - 1 for j in kept]]
    det_angles = [phi, -phi]
    cond_angles = [
        a if j in (1, 4) else math.pi / 2.0 - a for a in det_angles for j in kept
    ]
    derived = p.derived()
    q_pred, det_pred, cond_pred = {}, {}, {}
    for flip in {m.flip_jz for m in mappings}:
        inp = ClosedFormInputs(derived=derived, jz=-p.jz if flip else p.jz, beta=beta)
        q14, q23 = q_rate(inp, [phi, math.pi / 2.0 - phi])
        q_pred[flip] = np.array([q14, q23, q23, q14])
        for branch in Branch:
            det_pred[flip, branch] = f_branch(inp, branch, det_angles)
            if kept:
                cond_pred[flip, branch] = g_branch(inp, branch, cond_angles).reshape(2, -1)

    errors = []
    for m in mappings:
        printed = [(m.flip_jz, m.formula_branch(family)) for family in Branch]
        det = np.concatenate([det_pred[k] for k in printed])
        worst = max(
            float(np.max(np.abs(q_pred[m.flip_jz] - oracle.qbar))),
            float(np.max(np.abs(det - oracle.fbar_det))),
        )
        if kept:
            cond = np.vstack([cond_pred[k] for k in printed]).T
            worst = max(worst, float(np.max(np.abs(cond - oracle_cond))))
        errors.append(worst)
    return errors


def reconcile_conventions(
    case_count: int = 200,
    seed: int = 20260810,
    grid: QuadratureGrid = DEFAULT_GRID,
) -> ReconciliationReport:
    """Select the symbol transformation under which the printed formulas
    reproduce the quadrature oracle.

    Evaluates every candidate on ``case_count`` random parameter tuples
    (couplings and fields in [-3, 3], beta in (0, 20], phi in [0, pi])
    plus two fixed discriminating cases, and keeps the unique candidate
    whose worst error stays below ``RESOLUTION_TOL``.  If none or several
    survive, the report comes back unresolved and callers must fall back
    to oracle-computed quantities.

    Each case runs the oracle once and scores all four candidates in one
    pass (``_case_errors``): per sign of jz, one ``q_rate`` call on
    (phi, pi/2 - phi) and, per printed branch, one ``f_branch`` call on
    (phi, -phi) and one ``g_branch`` call on the angles of the outcomes
    the skip rule keeps; each candidate then reads the predictions of its
    own jz sign and branch assignment.
    """
    if case_count < 100:
        raise ValueError("reconciliation needs at least 100 cases")
    rng = np.random.default_rng(seed)
    cases = [_SINGLET_CASE, _XXX_FIELD_CASE]
    while len(cases) < case_count:
        p = HeisenbergParams(*rng.uniform(-3.0, 3.0, 5))
        beta = float(rng.uniform(0.05, 20.0))
        phi = float(rng.uniform(0.0, math.pi))
        cases.append((p, beta, phi))

    errors = {m.name: 0.0 for m in CANDIDATE_MAPPINGS}
    for p, beta, phi in cases:
        oracle = average_all(thermal_state(p, 1.0 / beta).rho, phi, grid)
        case = _case_errors(p, beta, phi, oracle, CANDIDATE_MAPPINGS)
        for m, err in zip(CANDIDATE_MAPPINGS, case):
            errors[m.name] = max(errors[m.name], err)

    winners = [m for m in CANDIDATE_MAPPINGS if errors[m.name] <= RESOLUTION_TOL]
    mapping = winners[0] if len(winners) == 1 else None

    p, beta, phi = _SINGLET_CASE
    oracle = average_all(thermal_state(p, 1.0 / beta).rho, phi, grid)
    singlet = {
        "jx": p.jx, "jy": p.jy, "jz": p.jz, "ha": p.ha, "hb": p.hb,
        "beta": beta,
        "phi": phi,
        "oracle_det_psi_minus": float(
            oracle.fbar_det[3]
        ),
        # psi- is the psi family at angle -phi
        "predicted_det_psi_minus": {
            m.name: float(f_branch(m.inputs(p, beta), m.formula_branch(Branch.PSI), -phi))
            for m in CANDIDATE_MAPPINGS
        },
    }
    return ReconciliationReport(
        mapping=mapping,
        max_abs_error=errors[mapping.name] if mapping else min(errors.values()),
        cases_tested=len(cases),
        seed=seed,
        candidate_errors=errors,
        singlet_case=singlet,
    )


_DEFAULT_REPORT: ReconciliationReport | None = None


def default_reconciliation() -> ReconciliationReport:
    """Process-wide cached reconciliation run (fixed seed, 150 cases)."""
    global _DEFAULT_REPORT
    if _DEFAULT_REPORT is None:
        _DEFAULT_REPORT = reconcile_conventions(case_count=150)
    return _DEFAULT_REPORT


def default_mapping() -> ConventionMapping:
    report = default_reconciliation()
    if report.mapping is None:
        raise RuntimeError(
            "convention reconciliation is unresolved; "
            "compute with the oracle engine instead of the closed forms"
        )
    return report.mapping


# ---------------------------------------------------------------------------
# reconciled user-facing evaluations (physical branch labels)


def reconciled_pair_rate(
    p: HeisenbergParams,
    beta: float,
    phi: float,
    pair=(1, 4),
    mapping: ConventionMapping | None = None,
) -> float:
    """Success rate of postselecting ``pair`` at basis angle ``phi``."""
    mapping = mapping or default_mapping()
    inp = mapping.inputs(p, beta)
    angle = phi if tuple(pair) == (1, 4) else math.pi / 2.0 - phi
    return 2.0 * float(q_rate(inp, angle))


def reconciled_det_optimal(
    p: HeisenbergParams, beta: float, mapping: ConventionMapping | None = None
) -> OptimizationResult:
    """Deterministic optimum with physically labeled branches."""
    mapping = mapping or default_mapping()
    return _det_optimum(mapping.inputs(p, beta), mapping.formula_branch)


def reconciled_prob_optimal(
    p: HeisenbergParams, beta: float, mapping: ConventionMapping | None = None
) -> OptimizationResult:
    """Probabilistic optimum with physically labeled branches.

    success_rate is 2 q(phi_opt) for the postselected pair.
    """
    mapping = mapping or default_mapping()
    return _prob_optimum(mapping.inputs(p, beta), mapping.formula_branch)
