"""Exact maximization over the measurement angle.

Every averaged quantity of the protocol is exactly

    u cos(phi)**2 + v sin(phi)**2 + s sin(phi) cos(phi),

a degree-1 trigonometric polynomial in 2 phi, and every efficiency is one
such quantity (deterministic) or a ratio N/D of two (postselected, D the
pair probability).  The maximum of such a ratio sits on a short, explicit
list of angles, each the root of a quadratic form in (cos phi, sin phi),
so both engines optimize by evaluating that list instead of searching.

The oracle's twelve problems per point (four with D = 1) go to the scalar
:func:`maximize_ratio`, as a column-wise call pays only from ~35 columns
on; the closed engine's batches and the classical bound's channel stacks
(D = 1) go to :func:`maximize_ratios`, each column with its scalar bits.

A column-wise call holds a candidate only where some column can use it.
A constant D (u = v, s = 0) uses only phi = 0 and the stationary points of
N/D: its maximum is phi = 0 again, D = floor has no root, and as every
candidate ties on D, the maximum itself beats both tie-window edges.

The choice between candidates (correction sets or branch families, and
postselected outcome pairs) lives here too, so both engines share one
selection rule and one way of labelling what they report.

Everything stays in the (u, v, s) form: near phi = 0 or pi/2, where
conclusive teleportation puts its sharpest maxima, the double-angle form
a0 + a1 cos(2 phi) + a2 sin(2 phi) loses the small quantities to
cancellation between a0 and a1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .spin_models import elementwise
from .teleport import CorrectionLabel

# a later candidate replaces the current best only when its efficiency is
# higher by more than this: mirror copies of one optimum (a correction set
# and its mirror, a branch and its mirror, one outcome pair and the other)
# differ only by roundoff, so canonical order decides between them
CANDIDATE_TIE_TOL = 1e-12


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


def maximize_ratio(num, den, floor=-math.inf, tie_tol=0.0) -> AngleOptimum:
    """Maximize N(phi)/D(phi) over the angles where D >= ``floor``.

    ``num`` and ``den`` are (u, v, s) triples as in the module docstring.
    Of the angles whose value lies within ``tie_tol`` of the maximum, the
    one with the largest D wins, so flat or near-flat maxima resolve to the
    best success rate.  A deterministic efficiency has D = 1, the triple
    (1, 1, 0).

    The candidates cover every angle either rule can pick: phi = 0, the
    maximum of D, the stationary points of N/D, the mask edges D = floor
    (kept as the boundary points they are even where rounding puts them a
    hair outside), and the edges of the tie window N = (top - tie_tol) D.
    """
    nu, nv, ns = num
    nu, nv, ns = float(nu), float(nv), float(ns)
    du, dv, ds = den
    du, dv, ds = float(du), float(dv), float(ds)
    # a constant D is kept exact, so ties keep the candidate order below
    # instead of going to whichever angle rounds cos**2 + sin**2 up
    constant = du == dv and ds == 0.0
    cos, sin = math.cos, math.sin
    # phi = 0, argmax D and (N/D)' = 0, i.e. N' D - N D' = 0 as a quadratic
    # form, all masked below the floor; then the mask edges, never masked
    # (an infinite floor has none)
    angles = [0.0, 0.5 * math.atan2(ds, du - dv)]
    angles += _roots(
        0.5 * (ns * du - ds * nu), nv * du - nu * dv, 0.5 * (ds * nv - ns * dv)
    )
    free = len(angles)
    if floor != -math.inf:
        angles += _roots(du - floor, ds, dv - floor)
    candidates = []  # (N/D, phi, D)
    for k, phi in enumerate(angles):
        c, s = cos(phi), sin(phi)
        d = du if constant else du * c * c + dv * s * s + ds * s * c
        if k >= free or not d < floor:
            candidates.append(((nu * c * c + nv * s * s + ns * s * c) / d, phi, d))
    if not candidates:
        raise ValueError("no angle has D above the floor")
    cut = max([c[0] for c in candidates]) - tie_tol
    for phi in _roots(nu - cut * du, ns - cut * ds, nv - cut * dv):
        c, s = cos(phi), sin(phi)
        d = du if constant else du * c * c + dv * s * s + ds * s * c
        if not d < floor:
            candidates.append(((nu * c * c + nv * s * s + ns * s * c) / d, phi, d))
    # the first candidate with the largest D inside the tie window
    best = None
    for cand in candidates:
        if cand[0] >= cut and (best is None or cand[2] > best[2]):
            best = cand
    value, phi, d = best
    phi %= math.pi
    return AngleOptimum(value, 0.0 if phi == math.pi else phi, d)


_atan2 = elementwise(math.atan2, 2)


def maximize_ratios(num, den, floor=-math.inf, tie_tol=0.0):
    """:func:`maximize_ratio` column by column.

    ``num`` and ``den`` are arrays (3, ...) whose first axis holds (u, v,
    s), and ``floor`` broadcasts against the columns.  Returns the maxima,
    their angles in [0, pi) and D there, each of the columns' shape, with
    the bits each column gets from :func:`maximize_ratio` alone: the same
    candidates in the same order, as slots with validity masks, and every
    expression in the scalar operation order (atan2 from libm entry by
    entry, as ``np.arctan2`` rounds differently).

    Raises ``ValueError`` naming the first column where no angle has D
    above the floor.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    shape = num.shape[1:]
    # the columns flattened, so one index per slot and column picks
    num, den = num.reshape(3, -1), den.reshape(3, -1)
    (nu, nv, ns), (du, dv, ds) = num, den
    floor = np.broadcast_to(floor, shape).ravel()
    bounded = floor != -math.inf
    columns = np.arange(nu.size)
    constant = (du == dv) & (ds == 0.0)
    # slots: phi = 0, argmax D, the roots of (N/D)' = 0 (from stationary),
    # all masked below the floor; the mask edges D = floor (from edge), never
    # masked; the tie-window edges (from ties), masked.  argmax D and the
    # window edges need a varying D, the mask edges a finite floor as well
    edges = bool((bounded & ~constant).any())
    varying = edges or not constant.all()
    stationary, edge = 1 + varying, 3 + varying
    ties = edge + 2 * edges
    slots = (ties + 2 * varying, nu.size)
    phi, d, value = np.zeros(slots), np.empty(slots), np.empty(slots)
    valid = np.ones(slots, dtype=bool)

    def angle(k, y, x):
        take = valid[k]
        phi[k, take] = _atan2(y[take], x[take])

    def roots(k, p, q, s):
        # quadratics p cos**2 + q sin cos + s sin**2 = 0 stacked along the
        # first axis, two slots each from slot k on, as _roots finds them
        disc = q * q - 4.0 * p * s
        h = -0.5 * (q + np.copysign(np.sqrt(disc), q))
        some = ~((disc < 0.0) | ((p == 0.0) & (q == 0.0) & (s == 0.0)))
        one = h == 0.0
        for j in range(len(p)):
            first = k + 2 * j
            valid[first], valid[first + 1] = some[j], some[j] & ~one[j]
            angle(first, h[j], s[j])
            angle(first + 1, p[j], h[j])
            # h = 0 leaves one root, on an axis
            np.copyto(phi[first], (p[j] != 0.0) * (0.5 * math.pi), where=one[j])

    def evaluate(k):
        # u cos**2 + v sin**2 + s sin cos of D into d and of N into value,
        # in place so the temporaries stay few, then N / D
        c, s = np.cos(phi[k]), np.sin(phi[k])
        term = np.empty_like(c)
        for (u, v, w), out in ((den, d[k]), (num, value[k])):
            np.multiply(u, c, out=out)
            out *= c
            np.multiply(v, s, out=term)
            term *= s
            out += term
            np.multiply(w, s, out=term)
            term *= c
            out += term
        np.copyto(d[k], du, where=constant)
        value[k] /= d[k]

    with np.errstate(divide="ignore", invalid="ignore"):
        if varying:
            angle(1, ds, du - dv)
            phi[1] *= 0.5
        # the stationary and the mask-edge quadratic; the mask edge's q is
        # ds itself, since ds + 0 * floor would turn a -0.0 into +0.0 and
        # flip copysign
        roots(
            stationary,
            np.array([0.5 * (ns * du - ds * nu), du - floor][: 1 + edges]),
            np.array([nv * du - nu * dv, ds][: 1 + edges]),
            np.array([0.5 * (ds * nv - ns * dv), dv - floor][: 1 + edges]),
        )
        evaluate(slice(0, ties))
        valid[:edge] &= ~(d[:edge] < floor)
        valid[edge:ties] &= bounded
        reached = valid[:ties].any(axis=0)
        if not reached.all():
            bad = np.unravel_index((~reached).argmax(), shape)
            raise ValueError(
                f"column {int(bad[0]) if len(bad) == 1 else tuple(map(int, bad))}: "
                "no angle has D above the floor"
            )
        # the largest value, the first of equal ones, as max() picks it
        top = np.where(valid[:ties], value[:ties], -math.inf)
        cut = value[(valid[:ties] & (top == top.max(axis=0))).argmax(axis=0), columns] - tie_tol
        if varying:
            roots(ties, (nu - cut * du)[None], (ns - cut * ds)[None], (nv - cut * dv)[None])
            evaluate(slice(ties, None))
            valid[ties:] &= ~(d[ties:] < floor)
        # the first candidate with the largest D inside the tie window
        window = valid & (value >= cut)
        wide = np.where(window, d, -math.inf)
        best = (window & (wide == wide.max(axis=0))).argmax(axis=0)
    value, phi, d = value[best, columns], np.mod(phi[best, columns], math.pi), d[best, columns]
    phi[phi == math.pi] = 0.0
    return value.reshape(shape), phi.reshape(shape), d.reshape(shape)


class Branch(Enum):
    PHI = "phi"
    PSI = "psi"


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


# correction set -> (branch family, angle sign): the + set at phi is its
# family at phi, the - set its family at -phi
SET_FAMILY = {
    CorrectionLabel.PHI_PLUS: (Branch.PHI, 1.0),
    CorrectionLabel.PHI_MINUS: (Branch.PHI, -1.0),
    CorrectionLabel.PSI_PLUS: (Branch.PSI, 1.0),
    CorrectionLabel.PSI_MINUS: (Branch.PSI, -1.0),
}


def select(values):
    """Index of the winning candidate.

    ``values`` are the candidates' efficiencies in canonical order: sets
    in ``CorrectionLabel`` order, or branches PHI then PSI, with pairs in
    ``teleport.OUTCOME_PAIRS`` order.  Each is a float, or an array with
    one entry per point, and the index comes back in the same form.  A
    later candidate wins only when it beats the current best by more than
    ``CANDIDATE_TIE_TOL``.
    """
    best, top = 0, values[0]
    for k, value in enumerate(values[1:], 1):
        better = value > top + CANDIDATE_TIE_TOL
        if isinstance(better, np.ndarray):
            best, top = np.where(better, k, best), np.where(better, value, top)
        elif better:
            best, top = k, value
    return best


def labeled(family: Branch, sign: float, pair, value, phi, rate=1.0) -> OptimizationResult:
    """The reported result of a candidate: its branch family at the
    family's angle sign * phi, taken mod pi (``SET_FAMILY`` gives a set's
    family and sign)."""
    angle = (sign * phi) % math.pi
    return OptimizationResult(value, 0.0 if angle == math.pi else angle, family, rate, pair)
