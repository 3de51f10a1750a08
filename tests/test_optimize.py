"""The exact angle optimizer against a dense scan plus golden-section search.

The reference below is the scan-based search the optimizer replaced: a
4096-point scan of [0, pi], golden-section refinement around the best scan
point, the MIN_PAIR_PROBABILITY-style mask and the success-rate tie-break
on the scan points.  The exact optimizer must never lose to it.
"""

import math

import numpy as np
import scalar_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermotele._checks import golden_max
from thermotele._optimize import (
    CANDIDATE_TIE_TOL,
    Branch,
    labeled,
    maximize_ratio,
    maximize_ratios,
    select,
)
from thermotele.closed_form import (
    MIN_PAIR_PROBABILITY,
    SUCCESS_TIE_TOL,
    ClosedFormInputs,
    _g_coefficients,
    _single_angle,
)
from thermotele.spin_models import HeisenbergParams

SCAN = np.linspace(0.0, math.pi, 4096)


def harmonic(coef, phi):
    c, s = np.cos(phi), np.sin(phi)
    return coef[0] * c * c + coef[1] * s * s + coef[2] * s * c


def masked_ratio(num, den, floor, phi):
    d = harmonic(den, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d >= floor, harmonic(num, phi) / d, -np.inf)


def reference_max(num, den, floor, tie_tol):
    """(value, phi) by scan, golden-section refinement and tie-break."""
    vals = masked_ratio(num, den, floor, SCAN)
    k = int(np.argmax(vals))
    phi_ref, val_ref = golden_max(
        lambda p: masked_ratio(num, den, floor, p),
        SCAN[max(k - 1, 0)],
        SCAN[min(k + 1, len(SCAN) - 1)],
        tol=1e-12,
    )
    if vals[k] > val_ref:
        phi_ref, val_ref = float(SCAN[k]), float(vals[k])
    ties = np.nonzero(vals >= val_ref - tie_tol)[0]
    cand_phi = np.append(SCAN[ties], phi_ref)
    cand_val = np.append(vals[ties], val_ref)
    j = int(np.argmax(harmonic(den, cand_phi)))
    return float(cand_val[j]), float(cand_phi[j])


def den_max(den):
    return 0.5 * (den[0] + den[1]) + math.hypot(0.5 * (den[0] - den[1]), 0.5 * den[2])


def peaked(top, depth, phi0):
    """(u, v, s) of top - depth * sin(phi - phi0)**2, maximal at phi0."""
    a1, a2 = 0.5 * depth * math.cos(2 * phi0), 0.5 * depth * math.sin(2 * phi0)
    a0 = top - 0.5 * depth
    return (a0 + a1, a0 - a1, 2 * a2)


unit = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def problems(draw):
    """(num, den, floor, tie_tol) with D a probability-like form >= 0."""
    du, dv = draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 2.0))
    ds = draw(st.floats(-1.0, 1.0)) * 2.0 * math.sqrt(du * dv)
    den = (du, dv, ds)
    kind = draw(st.sampled_from(["random", "plateau", "below_pi"]))
    if kind == "random":
        num = (draw(unit), draw(unit), draw(unit))
    elif kind == "plateau":
        level = draw(unit)
        eps = draw(st.sampled_from([0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-10]))
        num = tuple(level * d + eps * draw(unit) for d in den)
    else:
        den = (1.0, 1.0, 0.0)
        delta = draw(st.floats(1e-7, 1e-3))
        num = peaked(draw(unit), draw(st.floats(0.1, 2.0)), math.pi - delta)
    # masks from one that only keeps D off zero to one that leaves a sliver
    floor = draw(st.floats(1e-3, 0.95)) * den_max(den)
    tie_tol = draw(st.sampled_from([0.0, SUCCESS_TIE_TOL, 3 * SUCCESS_TIE_TOL]))
    return num, den, floor, tie_tol


@settings(max_examples=300, deadline=None)
@given(problems())
def test_never_beaten_by_scan_and_golden_section(problem):
    num, den, floor, tie_tol = problem
    opt = maximize_ratio(num, den, floor, tie_tol)
    ref_value, _ = reference_max(num, den, floor, tie_tol)
    assert opt.value >= ref_value - 1e-12 * max(1.0, abs(ref_value))
    assert 0.0 <= opt.phi < math.pi
    assert opt.den >= floor * (1 - 1e-12)
    at_phi = float(masked_ratio(num, den, -np.inf, opt.phi))
    assert abs(at_phi - opt.value) <= 1e-12 * max(1.0, abs(opt.value))


@settings(max_examples=300, deadline=None)
@given(problems())
def test_equals_the_scalar_reference(problem):
    # the optimizer before its rewrite, kept verbatim in scalar_reference
    num, den, floor, tie_tol = problem
    assert maximize_ratio(num, den, floor, tie_tol) == ref.maximize_ratio(
        num, den, floor, tie_tol
    )


# the problems' numerators, plus forms with s = +-0, whose stationary
# points sit on the axes
numerators = st.one_of(
    problems().map(lambda problem: problem[0]),
    st.tuples(st.sampled_from([0.0, -0.0]), unit, st.sampled_from([0.0, -0.0])),
)


def unit_forms(nums):
    """(num, den) tables (3, k) of the forms ``nums`` over D = 1, the
    triple (1, 1, 0)."""
    num = np.array(nums, dtype=float).T
    return num, np.broadcast_to([[1.0], [1.0], [0.0]], num.shape)


@settings(max_examples=200, deadline=None)
@given(st.lists(numerators, min_size=1, max_size=12))
def test_columns_equal_the_scalar_reference(nums):
    # D = 1: each column of the column-wise optimizer against the
    # column-wise optimizer of D = 1 forms it replaced, the earlier
    # optimizer's den=None path and the scalar optimizer's D = (1, 1, 0),
    # value and angle, equal as numbers (the form optimizer returns a
    # u = -0.0 at phi = 0 as it is, the ratio paths as +0.0)
    values, phis, dens = maximize_ratios(*unit_forms(nums))
    form_values, form_phis = ref.maximize_form(np.array(nums).T)
    assert np.array_equal(values, form_values) and np.array_equal(phis, form_phis)
    assert (dens == 1.0).all()
    for num, value, phi in zip(nums, values, phis):
        opt = ref.maximize_ratio(num)
        assert (value, phi) == (opt.value, opt.phi)
        assert (value, phi, 1.0) == maximize_ratio(num, (1.0, 1.0, 0.0))


@st.composite
def columns(draw):
    """A problem as drawn, with a constant D, or with D's s = -0.0; the
    floor keeps its share of D's maximum."""
    num, den, floor, _ = draw(problems())
    kind = draw(st.sampled_from(["drawn", "constant", "negative zero"]))
    if kind == "constant":
        new = (den[0], den[0], 0.0)
    elif kind == "negative zero":
        new = (den[0], den[1], -0.0)
    else:
        new = den
    return num, new, floor * den_max(new) / den_max(den)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(columns(), min_size=1, max_size=12),
    st.booleans(),
    st.sampled_from([0.0, 3 * SUCCESS_TIE_TOL]),
)
def test_ratio_columns_equal_the_scalar_optimizer(cases, infinite, tie_tol):
    # every column of the column-wise optimizer has the bits, signed zeros
    # included, of the scalar optimizer on that column alone
    floors = [-math.inf if infinite else floor for _, _, floor in cases]
    try:
        expected = [
            maximize_ratio(num, den, floor, tie_tol)
            for (num, den, _), floor in zip(cases, floors)
        ]
    except ZeroDivisionError:  # D = 0 at a candidate, with no floor
        assume(False)
    num = np.array([num for num, _, _ in cases]).T
    den = np.array([den for _, den, _ in cases]).T
    values, phis, dens = maximize_ratios(num, den, np.array(floors), tie_tol)
    for opt, got in zip(expected, zip(values, phis, dens)):
        assert np.array(got).tobytes() == np.array(opt).tobytes(), (opt, got)


def mixed_columns(rng, count):
    """``count`` problems (num, den, floor) of each of four kinds, in turn:
    a varying D (some with u = v) with a finite or an infinite floor, then
    a constant D (some D = 1, some with s = -0.0) with a finite or an
    infinite floor.  Every fifth numerator is a plateau of N/D."""
    columns = []
    for k in range(4 * count):
        if k % 4 < 2:
            du, dv = rng.uniform(0.05, 2.0, 2)
            dv = du if k % 3 == 0 else dv
            den = (du, dv, rng.uniform(-1.0, 1.0) * 2.0 * math.sqrt(du * dv))
        else:
            c = 1.0 if k % 3 == 0 else rng.uniform(0.05, 2.0)
            den = (c, c, -0.0 if k % 7 == 0 else 0.0)
        if k % 5 == 0:
            num = tuple(0.7 * d + eps for d, eps in zip(den, rng.uniform(-1e-13, 1e-13, 3)))
        else:
            num = tuple(rng.uniform(-2.0, 2.0, 3))
        floor = rng.uniform(1e-3, 0.95) * den_max(den) if k % 2 == 0 else -math.inf
        columns.append((num, den, floor))
    return columns


@pytest.mark.parametrize("tie_tol", [0.0, 3 * SUCCESS_TIE_TOL])
@pytest.mark.parametrize(
    "kinds",
    [(0, 1, 2, 3), (2, 3), (1, 2, 3), (0, 1), (1, 3)],
    ids=["all", "constant", "no-mask-edges", "varying", "infinite"],
)
def test_mixed_columns_equal_the_scalar_reference(kinds, tie_tol):
    # one call mixes the column kinds the slot rule tells apart; whatever
    # slots the call holds, every column gets the scalar reference's bits
    columns = mixed_columns(np.random.default_rng(26), 30)
    cases = [c for k, c in enumerate(columns) if k % 4 in kinds]
    num, den, floor = (np.array(x, dtype=float) for x in zip(*cases))
    values, phis, dens = maximize_ratios(num.T, den.T, floor, tie_tol)
    for (n, d, f), got in zip(cases, zip(values, phis, dens)):
        opt = ref.maximize_ratio(n, d, f, tie_tol)
        assert np.array(got).tobytes() == np.array(opt).tobytes(), (n, d, f, opt, got)


def test_ratio_columns_name_a_column_without_reachable_angles():
    # D = 1 everywhere, so a floor of 2 leaves no angle
    num = np.tile([[0.5], [0.2], [0.0]], (1, 3))
    den = np.tile([[1.0], [1.0], [0.0]], (1, 3))
    with pytest.raises(ValueError, match=r"^column 2: no angle"):
        maximize_ratios(num, den, np.array([0.5, 0.5, 2.0]))
    floor = np.array([[0.5, 0.5, 0.5], [0.5, 2.0, 0.5]])
    with pytest.raises(ValueError, match=r"^column \(1, 1\): no angle"):
        maximize_ratios(num[:, None].repeat(2, axis=1), den[:, None].repeat(2, axis=1), floor)


@settings(max_examples=100, deadline=None)
@given(unit, st.floats(0.1, 2.0), st.floats(0.0, math.pi))
def test_deterministic_optimum_is_the_amplitude(top, depth, phi0):
    (value,), (phi,), _ = maximize_ratios(*unit_forms([peaked(top, depth, phi0)]))
    assert abs(value - top) <= 1e-14
    # the peak is sharp, so the angle comes back to rounding
    gap = abs(phi - phi0) % math.pi
    assert min(gap, math.pi - gap) <= 1e-7


def test_plateau_goes_to_the_largest_success_rate():
    den = (0.2, 1.4, 0.3)
    opt = maximize_ratio(tuple(0.7 * d for d in den), den, 0.01, SUCCESS_TIE_TOL)
    assert abs(opt.value - 0.7) <= 1e-15
    assert abs(opt.den - den_max(den)) <= 1e-15


def test_maximum_just_below_pi():
    # printed phi-branch whose maximum sits at phi = pi - 2e-4; the scan
    # search this optimizer replaced returned 0.43195283 at phi = 0, since
    # its best scan point landed on phi = 0 and golden-section cannot wrap
    p = HeisenbergParams(
        0.21998455972851083, 0.04060801881951548, -0.7978208084658007,
        2.1915011055941287, 2.406589286683187,
    )
    inp = ClosedFormInputs.from_heisenberg(p, 3.210895862626366)
    num, den, scale = _g_coefficients(inp, Branch.PHI)
    num, den = _single_angle(num), _single_angle(den)
    floor = 2.0 * MIN_PAIR_PROBABILITY * scale
    opt = maximize_ratio(num, den, floor, 3 * SUCCESS_TIE_TOL)
    g = 1.0 / 3.0 + opt.value / 3.0
    assert abs(g - 0.43196166) <= 1e-8
    assert abs(opt.phi - 3.14137) <= 1e-5
    phis = np.linspace(math.pi - 1e-3, math.pi, 100_001)
    assert opt.value >= float(np.max(masked_ratio(num, den, floor, phis))) - 1e-12


def test_closed_branches_never_beaten_by_reference():
    rng = np.random.default_rng(19)
    for _ in range(40):
        p = HeisenbergParams(*rng.uniform(-3, 3, 5))
        inp = ClosedFormInputs.from_heisenberg(p, float(rng.uniform(0.05, 20.0)))
        for branch in Branch:
            num, den, scale = _g_coefficients(inp, branch)
            num, den = _single_angle(num), _single_angle(den)
            floor = 2.0 * MIN_PAIR_PROBABILITY * scale
            opt = maximize_ratio(num, den, floor, 3 * SUCCESS_TIE_TOL)
            ref_value, _ = reference_max(num, den, floor, 3 * SUCCESS_TIE_TOL)
            assert opt.value >= ref_value - 1e-12


def test_mirror_copies_keep_the_first_candidate():
    # a set and its mirror reach one optimum up to roundoff
    top = 0.7
    assert select([top, top + 0.5 * CANDIDATE_TIE_TOL, top - 1e-16]) == 0
    # each later candidate is held against the current best, not the first
    steps = [top, top + 2 * CANDIDATE_TIE_TOL, top + 2.5 * CANDIDATE_TIE_TOL]
    assert select(steps) == 1
    columns = [np.array([top, top]), np.array([top + 0.5 * CANDIDATE_TIE_TOL, top])]
    assert select(columns).tolist() == [0, 0]


def test_a_later_candidate_better_by_more_than_the_tolerance_wins():
    top = 0.7
    assert select([top, top + 2 * CANDIDATE_TIE_TOL]) == 1
    assert select([top, top - 0.1, top + 2 * CANDIDATE_TIE_TOL, top]) == 2
    columns = [
        np.array([top, top, top]),
        np.array([top + 2 * CANDIDATE_TIE_TOL, top, top - 0.1]),
        np.array([top, top + 0.1, top + 2 * CANDIDATE_TIE_TOL]),
    ]
    assert select(columns).tolist() == [1, 2, 2]


def test_minus_sets_report_their_family_at_the_mirrored_angle():
    res = labeled(Branch.PSI, -1.0, (2, 3), 0.9, 0.3, 0.25)
    assert res.best_phi == math.pi - 0.3
    assert (res.best_branch, res.outcome_pair, res.success_rate) == (Branch.PSI, (2, 3), 0.25)
    # -phi rounds up to pi mod pi for tiny phi; it is reported as 0
    assert labeled(Branch.PHI, -1.0, None, 0.9, 1e-17).best_phi == 0.0
    assert labeled(Branch.PHI, 1.0, None, 0.9, math.pi / 4).best_phi == math.pi / 4
