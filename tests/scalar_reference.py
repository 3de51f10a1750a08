"""The scalar closed forms and the scalar angle optimizer as they stood
before the closed engine became array-native, kept as test references.

The code below is the earlier ``_optimize.py`` and the expression half of
``closed_form.py`` (plus ``DerivedParams``) unchanged, except that
``ClosedFormInputs.from_heisenberg`` builds the ``DerivedParams`` defined
here and that the choice between the two branch optima follows the shared
candidate rule (``_optimize.select``: a later branch must be better by more
than ``CANDIDATE_TIE_TOL`` on the efficiency scale).  Tests assert that the
array code reproduces it bit for bit.

``maximize_form`` is the column-wise optimizer of D = 1 forms that
``_optimize`` carried for channel stacks before ``maximize_ratios`` took
them over, moved here unchanged (with its libm ``_atan2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from thermotele._optimize import CANDIDATE_TIE_TOL
from thermotele.closed_form import (
    DENOM_EPS,
    GAP_EPS,
    MIN_PAIR_PROBABILITY,
    SUCCESS_TIE_TOL,
    Branch,
)
from thermotele.spin_models import HeisenbergParams, elementwise

# ---------------------------------------------------------------------------
# the angle optimizer


class AngleOptimum(NamedTuple):
    value: float  # N/D at the optimum
    phi: float  # measurement angle in [0, pi)
    den: float  # D at the optimum


def _roots(p: float, q: float, s: float) -> list:
    """Angles where p cos**2 + q sin cos + s sin**2 vanishes.

    Uses the cancellation-free root pair of s t**2 + q t + p = 0 in
    t = tan(phi), each root kept as a direction so t may be infinite.
    """
    disc = q * q - 4.0 * p * s
    if disc < 0.0 or p == q == s == 0.0:
        return []
    h = -0.5 * (q + math.copysign(math.sqrt(disc), q))
    if h == 0.0:  # q = 0 and one of p, s is 0
        return [0.0 if p == 0.0 else 0.5 * math.pi]
    return [math.atan2(h, s), math.atan2(p, h)]


def maximize_ratio(num, den=None, floor=-math.inf, tie_tol=0.0) -> AngleOptimum:
    """Maximize N(phi)/D(phi) over the angles where D >= ``floor``.

    ``num`` and ``den`` are (u, v, s) triples as in the module docstring;
    ``den=None`` means D = 1.  Of the angles whose value lies within
    ``tie_tol`` of the maximum, the one with the largest D wins, so flat
    or near-flat maxima resolve to the best success rate.

    The candidates cover every angle either rule can pick: phi = 0, the
    maximum of D, the stationary points of N/D, the mask edges D = floor
    (kept as the boundary points they are even where rounding puts them a
    hair outside), and the edges of the tie window N = (top - tie_tol) D.
    """
    nu, nv, ns = (float(x) for x in num)
    du, dv, ds = (1.0, 1.0, 0.0) if den is None else (float(x) for x in den)
    # a constant D is kept exact, so ties keep the candidate order below
    # instead of going to whichever angle rounds cos**2 + sin**2 up
    constant = du == dv and ds == 0.0

    def at(phi, forced=False):
        c, s = math.cos(phi), math.sin(phi)
        d = du if constant else du * c * c + dv * s * s + ds * s * c
        if d < floor and not forced:
            return None
        return (nu * c * c + nv * s * s + ns * s * c) / d, phi, d

    interior = [0.0, 0.5 * math.atan2(ds, du - dv)]
    # (N/D)' = 0, i.e. N' D - N D' = 0, as a quadratic form
    interior += _roots(
        0.5 * (ns * du - ds * nu), nv * du - nu * dv, 0.5 * (ds * nv - ns * dv)
    )
    candidates = [at(phi) for phi in interior]
    candidates += [at(phi, True) for phi in _roots(du - floor, ds, dv - floor)]
    candidates = [c for c in candidates if c is not None]
    if not candidates:
        raise ValueError("no angle has D above the floor")
    cut = max(c[0] for c in candidates) - tie_tol
    candidates += [at(phi) for phi in _roots(nu - cut * du, ns - cut * ds, nv - cut * dv)]
    window = [c for c in candidates if c is not None and c[0] >= cut]
    value, phi, d = max(window, key=lambda c: c[2])
    phi %= math.pi
    return AngleOptimum(value, 0.0 if phi == math.pi else phi, d)


_atan2 = elementwise(math.atan2, 2)


def maximize_form(num):
    """Maximize N(phi) = u cos**2 + v sin**2 + s sin cos, column by column.

    ``num`` is an array (3, ...) whose first axis holds (u, v, s), so a
    (3, k) table optimizes k forms at once.  Returns the maxima and their
    angles in [0, pi), each of shape ``num.shape[1:]``.

    The candidates are phi = 0 and the stationary points, the roots of
    N' = 0, which :func:`maximize_ratio` would check for D = 1; the first
    maximum wins.  ``np.sin``, ``np.cos`` and ``np.sqrt`` round like libm,
    ``np.arctan2`` does not, so atan2 comes from libm entry by entry and a
    column gets the bits it would get alone.
    """
    nu, nv, ns = np.asarray(num, dtype=float)
    # the roots of N' = 0, p cos**2 + q sin cos + r sin**2 = 0, as _roots
    # finds them; r = -p, so the discriminant is never negative
    p, q, r = 0.5 * ns, nv - nu, -0.5 * ns
    h = -0.5 * (q + np.copysign(np.sqrt(q * q - 4.0 * p * r), q))
    # h = 0 leaves one root, on an axis (for constant N, at phi = 0)
    on_axis = h == 0.0
    first = np.where(on_axis, (p != 0.0) * (0.5 * math.pi), _atan2(h, r))
    # phi = 0, then the roots in turn: the first maximum wins
    best, phi = nu, 0.0
    for valid, angle in ((True, first), (~on_axis, _atan2(p, h))):
        c, s = np.cos(angle), np.sin(angle)
        value = nu * c * c + nv * s * s + ns * s * c
        better = valid & (value > best)
        best, phi = np.where(better, value, best), np.where(better, angle, phi)
    phi = np.mod(phi, math.pi)
    return best, np.where(phi == math.pi, 0.0, phi)


# ---------------------------------------------------------------------------
# the closed forms


@dataclass(frozen=True)
class DerivedParams:
    """Coupling sums/differences and the two sector gap parameters."""

    delta_j: float
    sigma_j: float
    delta_h: float
    sigma_h: float
    eta: float
    chi: float

    @classmethod
    def from_couplings(cls, p: HeisenbergParams) -> "DerivedParams":
        delta_j = p.jx - p.jy
        sigma_j = p.jx + p.jy
        delta_h = p.ha - p.hb
        sigma_h = p.ha + p.hb
        return cls(
            delta_j=delta_j,
            sigma_j=sigma_j,
            delta_h=delta_h,
            sigma_h=sigma_h,
            eta=math.hypot(delta_j, sigma_h),
            chi=math.hypot(delta_h, sigma_j),
        )


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
        return cls(derived=DerivedParams.from_couplings(p), jz=p.jz, beta=beta)


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
        if best is None or value > best.best_value + CANDIDATE_TIE_TOL:
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
        if best is None or (
            1.0 / 3.0 + opt.value / 3.0 > 1.0 / 3.0 + best[0].value / 3.0 + CANDIDATE_TIE_TOL
        ):
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
