"""Closed-form success rates and efficiencies, plus convention reconciliation.

The analytic expressions evaluated here (``q_rate``, ``f_branch``,
``g_branch`` and their optimizers) are transcribed literally, including
their branch superscripts and the sign of the zz coupling as printed.
A desk derivation of the block spectra shows such printed conventions need
not line up with the density-matrix protocol itself, so nothing user-facing
trusts the transcription directly: :func:`reconcile_conventions` compares
the printed forms against the quadrature oracle under four candidate symbol
transformations (identity, jz sign flip, phi/psi branch swap, both).  Its
inputs are fixed, so its unique surviving mapping is a constant of the
source, ``RESOLVED_MAPPING``; the ``reconciled_*`` wrappers evaluate
everything under it without running the oracle, and the acceptance
battery's reconciliation check fails if the oracle ever picks another.

All hyperbolic combinations are evaluated in shifted exponential form
(every exponent is measured from the largest one appearing), so inverse
temperatures up to ~1e3 never overflow, and the removable 0/0 singularities
at beta eta -> 0 or beta chi -> 0 are handled by a second-order Taylor
expansion of sinh(beta x)/x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _version
from ._optimize import Branch, labeled, maximize_ratios, select
from .averaging import average_all
from .spin_models import DerivedParams, HeisenbergParams, elementwise, thermal_state
from .teleport import OUTCOME_PAIRS, pair_index

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


@dataclass(frozen=True)
class ClosedFormInputs:
    """Arguments of the printed expressions: sector parameters, jz, beta.

    Fields are floats for one point or equal-length arrays for a batch of
    points; every expression below is elementwise in them, broadcasts
    against its angle argument, and runs the same numpy operations on a
    float as on an array, so a point gets the same bits alone as in any
    batch.

    ``derived`` and ``jz`` are deliberately independent fields so that a
    convention mapping can flip the sign of jz without touching the gap
    parameters (which do not involve jz).  ``mapping`` is the
    ``ConventionMapping`` that built the inputs, or ``None``.
    """

    derived: DerivedParams
    jz: float | np.ndarray
    beta: float | np.ndarray
    mapping: "ConventionMapping | None" = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        bad = beta[~(np.isfinite(beta) & (beta >= 0.0))]
        if bad.size:
            raise ValueError(f"beta must be finite and >= 0, got {bad[0]}")

    @classmethod
    def from_heisenberg(cls, p, beta) -> "ClosedFormInputs":
        """``p`` is one HeisenbergParams (float fields), or a sequence of
        them with one beta each (array fields)."""
        if isinstance(p, HeisenbergParams):
            jx, jy, jz, ha, hb = p.jx, p.jy, p.jz, p.ha, p.hb
        else:
            couplings = [(q.jx, q.jy, q.jz, q.ha, q.hb) for q in p]
            jx, jy, jz, ha, hb = np.array(couplings, dtype=float).reshape(-1, 5).T
        return cls(DerivedParams.from_couplings(jx, jy, ha, hb), jz, beta)

    def take(self, index) -> "ClosedFormInputs":
        """The sub-batch ``index`` (numpy indexing) of a batch."""
        derived = {k: v[index] for k, v in vars(self.derived).items()}
        return replace(
            self, derived=DerivedParams(**derived), jz=self.jz[index], beta=self.beta[index]
        )

    # each printed expression reads one branch's hyperbolic terms; a branch
    # is built once per inputs, and only if some expression reads it
    @cached_property
    def phi_terms(self) -> "_BranchTerms":
        return _branch_terms(self, Branch.PHI)

    @cached_property
    def psi_terms(self) -> "_BranchTerms":
        return _branch_terms(self, Branch.PSI)

    def terms(self, branch: Branch) -> "_BranchTerms":
        """The hyperbolic terms of the printed ``branch``."""
        return self.phi_terms if Branch(branch) is Branch.PHI else self.psi_terms


# ---------------------------------------------------------------------------
# shifted hyperbolic building blocks

_exp = elementwise(math.exp, 1)


def _shifted_pair(beta, x, offset, shift):
    """exp(-beta shift) exp(beta offset) times cosh(beta x) and times
    sinh(beta x)/x, overflow-free; the ratio takes its Taylor form (x -> 0
    limit) where beta x < GAP_EPS."""
    # overflow is harmless: exponents go to -inf (exp 0), beta x past GAP_EPS
    with np.errstate(over="ignore"):
        up = _exp(beta * (offset + x - shift))
        down = _exp(beta * (offset - x - shift))
        # both forms are evaluated everywhere, so the series sees beta x only
        # where it applies and the difference quotient gets a unit divisor
        # where x may vanish: neither can overflow or divide by zero
        taylor = beta * x < GAP_EPS
        series_x = np.where(taylor, beta * x, 0.0)
        ratio = np.where(
            taylor,
            beta * _exp(beta * (offset - shift)) * (1.0 + series_x**2 / 6.0),
            (up - down) / np.where(taylor, 1.0, 2.0 * x),
        )
    return 0.5 * (up + down), ratio


@dataclass(frozen=True)
class _BranchTerms:
    """One printed branch's pieces of q, f and g after dividing out eta*chi.

    The phi-branch's own sector gap is chi, the other sector's is eta and
    sits at offset 2 jz; the psi-branch's own gap is eta, the other chi at
    offset -2 jz.  All four terms carry the common factor exp(-beta*shift)
    with shift = max(own, offset + other), so ``scale`` is always in
    [1/2, 2] and ratios are safe at any beta.
    """

    cosh: np.ndarray         # cosh(beta own)
    ratio: np.ndarray        # sinh(beta own)/own
    other_cosh: np.ndarray   # e^{beta offset} cosh(beta other)
    other_ratio: np.ndarray  # e^{beta offset} sinh(beta other)/other
    key: np.ndarray          # coupling on sin(2 phi): sigma_j (phi), delta_j (psi)
    field: np.ndarray        # field on ratio: delta_h (phi), sigma_h (psi)
    other_field: np.ndarray  # field on other_ratio: sigma_h (phi), delta_h (psi)

    @property
    def scale(self):
        return self.cosh + self.other_cosh

    @property
    def tilt(self):
        return self.field * self.ratio + self.other_field * self.other_ratio


def _branch_terms(inp: ClosedFormInputs, branch: Branch) -> _BranchTerms:
    """The one place the printed branches differ: own gap, offset sign and
    couplings."""
    d, b = inp.derived, inp.beta
    if branch is Branch.PHI:
        own, other, offset = d.chi, d.eta, 2.0 * inp.jz
        key, field, other_field = d.sigma_j, d.delta_h, d.sigma_h
    else:
        own, other, offset = d.eta, d.chi, -2.0 * inp.jz
        key, field, other_field = d.delta_j, d.sigma_h, d.delta_h
    # psi's (-2 jz) + chi rounds like chi - 2 jz, and IEEE addition
    # commutes, so both branches keep the bits of the scalar reference's
    # separate phi and psi formulas (tests/scalar_reference.py)
    shift = np.maximum(own, offset + other)
    return _BranchTerms(
        *_shifted_pair(b, own, 0.0, shift), *_shifted_pair(b, other, offset, shift),
        key, field, other_field,
    )


# ---------------------------------------------------------------------------
# literal printed expressions


def q_rate(inp: ClosedFormInputs, phi):
    """Success rate q(phi) of outcomes 1 and 4; outcomes 2 and 3 carry
    q(pi/2 - phi).  ``phi`` broadcasts against the inputs."""
    t = inp.phi_terms
    return 0.25 - np.cos(2.0 * np.asarray(phi, dtype=float)) * t.tilt / (4.0 * t.scale)


def f_branch(inp: ClosedFormInputs, branch: Branch, phi):
    """Deterministic efficiency of the printed phi- or psi-branch at
    measurement angle ``phi``."""
    t = inp.terms(branch)
    sin2 = np.sin(2.0 * np.asarray(phi, dtype=float))
    return 1.0 / 3.0 + (t.cosh - t.key * sin2 * t.ratio) / (3.0 * t.scale)


def _g_coefficients(inp: ClosedFormInputs, branch: Branch):
    """Numerator and denominator of the printed g ratio as (a0, a1, a2)
    triples, a0 + a1 cos(2 phi) + a2 sin(2 phi), plus the overall scale.

    g = 1/3 + num / (3 den), and den / (2 * scale) is the postselected
    pair's success rate.
    """
    t = inp.terms(branch)
    scale = t.scale
    return (t.cosh, -t.ratio * t.field, -t.ratio * t.key), (scale, -t.tilt, 0.0), scale


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


_BRANCHES = tuple(Branch)

# the OUTCOME_PAIRS index of each outcome's pair, outcomes 1..4
_PAIR_OF_OUTCOME = np.array(
    [next(k for k, pair in enumerate(OUTCOME_PAIRS) if j in pair) for j in range(1, 5)]
)


def _pair_angle(pair, phi):
    """Where the printed forms, pair (1, 4)'s, give pair ``pair`` (OUTCOME_PAIRS
    indices) at ``phi``: pair (2, 3) at phi is pair (1, 4) at pi/2 - phi."""
    return np.where(np.asarray(pair) == 1, math.pi / 2.0 - phi, phi)


def _one_or_all(inp: ClosedFormInputs, results: list):
    """The result of a single point (float inputs) or the batch's list."""
    return results if np.ndim(inp.jz) or np.ndim(inp.beta) else results[0]


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

    def inputs(self, p, beta) -> ClosedFormInputs:
        """Inputs of one HeisenbergParams or of a sequence of them, with
        one beta each.  Inputs this mapping built at an equal beta pass
        through unchanged, so the expressions that read them share their
        branch terms; any other inputs are a ValueError."""
        if isinstance(p, ClosedFormInputs):
            if p.mapping != self:
                built = p.mapping.name if p.mapping else "no mapping"
                raise ValueError(f"inputs built under {built} cannot be read under {self.name}")
            if not np.array_equal(p.beta, beta):
                raise ValueError("inputs built at another beta cannot be read at this one")
            return p
        inp = ClosedFormInputs.from_heisenberg(p, beta)
        return replace(inp, jz=-inp.jz if self.flip_jz else inp.jz, mapping=self)

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
# the one candidate that reconcile_conventions(150) keeps (acceptance criterion 10)
RESOLVED_MAPPING = CANDIDATE_MAPPINGS[3]

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


def _case_errors(cases, oracles, mappings) -> np.ndarray:
    """Worst |printed - oracle| over the q, f and g entries of every case,
    as an array with one row per case and one column per mapping.

    ``cases`` are (params, beta, phi) tuples and ``oracles`` their
    stacked ``average_all``.  The mappings differ only by the sign of jz
    and by which printed branch describes which physical family, so all
    cases are scored in one pass: per jz sign one ``q_rate`` call on
    (phi, pi/2 - phi), and per printed branch one ``f_branch`` call on
    (phi, -phi) and one ``g_branch`` call on the angles of the outcomes
    the skip rule keeps, flattened across cases.  Each mapping then reads
    the predictions of its jz sign and branch assignment.  A family's two
    sets are its + and - angle signs (``_optimize.SET_FAMILY``), so stacking
    the families in ``Branch`` order gives the oracle's set columns.
    """
    params = [p for p, _, _ in cases]
    beta = np.array([b for _, b, _ in cases], dtype=float)[:, None]
    phi = np.array([a for _, _, a in cases], dtype=float)[:, None]
    qbar, fbar_det, fbar_cond = oracles.qbar, oracles.fbar_det, oracles.fbar_cond
    det_angles = np.hstack([phi, -phi])
    # conditional averages are compared only where the outcome probability
    # is large enough for double precision to resolve them to the
    # reconciliation tolerance; skipped outcomes are never evaluated.
    # Entries run over (case, angle sign, outcome j), each at its pair's
    # angle for the family angle a
    kept = np.broadcast_to(
        (qbar >= 0.5 * MIN_PAIR_PROBABILITY)[:, None, :], (len(cases), 2, 4)
    )
    rows, sign, outcome = np.nonzero(kept)
    a = det_angles[rows, sign]
    cond_angles = _pair_angle(_PAIR_OF_OUTCOME[outcome], a)

    q_err, det_pred, cond_pred = {}, {}, {}
    for flip in {m.flip_jz for m in mappings}:
        # the inputs of any mapping with this jz sign
        inp = next(m for m in mappings if m.flip_jz == flip).inputs(params, beta[:, 0])
        wide = inp.take((slice(None), None))
        q_pred = q_rate(wide, _pair_angle(range(len(OUTCOME_PAIRS)), phi))[:, _PAIR_OF_OUTCOME]
        q_err[flip] = np.max(np.abs(q_pred - qbar), axis=1)
        for branch in Branch:
            det_pred[flip, branch] = f_branch(wide, branch, det_angles)
            if rows.size:
                cond_pred[flip, branch] = g_branch(inp.take(rows), branch, cond_angles)

    errors = np.empty((len(cases), len(mappings)))
    for k, m in enumerate(mappings):
        printed = [(m.flip_jz, m.formula_branch(family)) for family in Branch]
        det = np.hstack([det_pred[key] for key in printed])
        worst = np.maximum(q_err[m.flip_jz], np.max(np.abs(det - fbar_det), axis=1))
        for f, key in enumerate(printed):
            if rows.size:
                oracle = fbar_cond[rows, outcome, 2 * f + sign]
                np.maximum.at(worst, rows, np.abs(cond_pred[key] - oracle))
        errors[:, k] = worst
    return errors


def _random_cases(rng, count: int, beta_low: float, beta_high: float = 20.0) -> list:
    """``count`` random (params, beta, phi) cases: couplings and fields in
    [-3, 3], beta in [beta_low, beta_high), phi in [0, pi)."""
    return [
        (
            HeisenbergParams(*rng.uniform(-3.0, 3.0, 5)),
            float(rng.uniform(beta_low, beta_high)),
            float(rng.uniform(0.0, math.pi)),
        )
        for _ in range(count)
    ]


def _oracle_averages(cases):
    """The quadrature oracle's averages of every (params, beta, phi) case,
    as one ``average_all`` of the stacked thermal states."""
    rho = np.array([thermal_state(p, 1.0 / beta).rho.mat for p, beta, _ in cases])
    return average_all(rho, np.array([phi for _, _, phi in cases]))


def reconcile_conventions(case_count: int = 200, seed: int = 20260810) -> ReconciliationReport:
    """Select the symbol transformation under which the printed formulas
    reproduce the quadrature oracle.

    Evaluates every candidate on ``case_count`` random parameter tuples
    (couplings and fields in [-3, 3], beta in (0, 20], phi in [0, pi])
    plus two fixed discriminating cases, and keeps the unique candidate
    whose worst error stays below ``RESOLUTION_TOL``.  If none or several
    survive, the report comes back unresolved.

    The oracle averages all cases in one stacked pass; ``_case_errors``
    then scores them under all four candidates in one pass.
    """
    if case_count < 100:
        raise ValueError("reconciliation needs at least 100 cases")
    rng = np.random.default_rng(seed)
    cases = [_SINGLET_CASE, _XXX_FIELD_CASE, *_random_cases(rng, case_count - 2, 0.05)]
    oracles = _oracle_averages(cases)
    table = _case_errors(cases, oracles, CANDIDATE_MAPPINGS)
    errors = {m.name: float(table[:, k].max()) for k, m in enumerate(CANDIDATE_MAPPINGS)}

    winners = [m for m in CANDIDATE_MAPPINGS if errors[m.name] <= RESOLUTION_TOL]
    mapping = winners[0] if len(winners) == 1 else None

    p, beta, phi = _SINGLET_CASE
    singlet = {
        "jx": p.jx, "jy": p.jy, "jz": p.jz, "ha": p.ha, "hb": p.hb,
        "beta": beta,
        "phi": phi,
        "oracle_det_psi_minus": float(oracles.fbar_det[0, 3]),
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


# ---------------------------------------------------------------------------
# reconciled user-facing evaluations (physical branch labels)


def reconciled_pair_rate(
    p,
    beta,
    phi,
    pair=OUTCOME_PAIRS[0],
    mapping: ConventionMapping = RESOLVED_MAPPING,
):
    """Success rate of postselecting ``pair`` (either order) at basis
    angle ``phi``; a pair outside ``OUTCOME_PAIRS`` is a ValueError.

    ``p`` is one HeisenbergParams (a float comes back) or a sequence of
    them with one beta, angle and pair each (a list comes back), or the
    ``mapping``'s inputs of either (``ConventionMapping.inputs``).
    """
    inp = mapping.inputs(p, beta)
    index = pair_index(pair) if np.ndim(pair) == 1 else [pair_index(q) for q in pair]
    rate = 2.0 * q_rate(inp, _pair_angle(index, np.asarray(phi, dtype=float)))
    return _one_or_all(inp, np.ravel(rate).tolist())


def _best_branch(inp: ClosedFormInputs, pair, values, angles):
    """The winning branch's result at every point of ``inp``.

    ``values`` and ``angles`` hold each branch's efficiencies and angles
    (a float or an array, in ``Branch`` order).  The success rate is that
    of the postselected ``pair``, 2 q(phi), or 1 without a pair (all
    outcomes kept).
    """
    values = [np.atleast_1d(v) for v in values]
    k = select(values)
    value = np.choose(k, values).tolist()
    angle = np.choose(k, [np.atleast_1d(a) for a in angles])
    rates = np.ravel(2.0 * q_rate(inp, angle)).tolist() if pair else [1.0] * len(angle)
    return _one_or_all(inp, [
        labeled(_BRANCHES[i], 1.0, pair, v, phi, rate)
        for i, v, phi, rate in zip(k.tolist(), value, angle.tolist(), rates)
    ])


def reconciled_det_optimal(p, beta, mapping: ConventionMapping = RESOLVED_MAPPING):
    """Deterministic optimum with physically labeled branches: one result
    for one HeisenbergParams, a list for a sequence of them (one beta
    each); ``p`` may also be the ``mapping``'s inputs of either.
    ``CANDIDATE_MAPPINGS[0]`` (identity) gives the printed optimum.

    Each branch's optimum sits at phi = +/- pi/4 (the standard Bell
    basis); only the sign, fixed by sigma_j and delta_j, varies.
    """
    inp = mapping.inputs(p, beta)
    printed = [mapping.formula_branch(b) for b in Branch]
    # a non-positive sin(2 phi) coupling selects pi/4, any other 3pi/4
    # (equivalent to -pi/4); sin(2 phi) is then exactly +/-1
    angles = [
        np.where(inp.terms(b).key <= 0.0, math.pi / 4.0, 3.0 * math.pi / 4.0) for b in printed
    ]
    values = [f_branch(inp, b, a) for b, a in zip(printed, angles)]
    return _best_branch(inp, None, values, angles)


def reconciled_prob_optimal(p, beta, mapping: ConventionMapping = RESOLVED_MAPPING):
    """Probabilistic optimum with physically labeled branches: one result
    for one HeisenbergParams, a list for a sequence of them (one beta
    each); ``p`` may also be the ``mapping``'s inputs of either.
    ``CANDIDATE_MAPPINGS[0]`` (identity) gives the printed optimum.

    One column-wise optimizer call covers every point and both branches.
    Angles whose pair probability falls below MIN_PAIR_PROBABILITY are
    excluded, and fidelities within SUCCESS_TIE_TOL of the top go to the
    larger success rate.  Pair (2, 3) at phi has the efficiency of pair
    (1, 4) at pi/2 - phi, so optimizing pair (1, 4) over all angles covers
    both; the result reports pair (1, 4) and its success rate 2 q(phi_opt).
    """
    inp = mapping.inputs(p, beta)
    # g = 1/3 + num/(3 den) rises with num/den, so maximize the ratio
    # itself, with the tie window scaled to match; one (7, branch, ...)
    # table holds N's and D's (u, v, s) and the floor of both branches
    columns = []
    for branch in Branch:
        num, den, scale = _g_coefficients(inp, mapping.formula_branch(branch))
        columns += [*_single_angle(num), *_single_angle(den), 2.0 * MIN_PAIR_PROBABILITY * scale]
    table = np.array(np.broadcast_arrays(*columns))
    table = table.reshape((2, 7) + table.shape[1:]).swapaxes(0, 1)
    value, phi, _ = maximize_ratios(
        table[:3], table[3:6], table[6], tie_tol=3.0 * SUCCESS_TIE_TOL
    )
    return _best_branch(inp, OUTCOME_PAIRS[0], list(1.0 / 3.0 + value / 3.0), list(phi))
