"""The postselected classical ceiling: no separable channel beats 2/3.

The paper calls a probabilistic efficiency above 2/3 genuine quantum
teleportation.  Postselection reweights the inputs, so the deterministic
bound of Massar & Popescu (PRL 74, 1259 (1995)) does not give this by
itself; it follows from the input's fourth moment, E[psi psi+ (x) psi
psi+] = (1 + SWAP)/6.  For a separable channel sum_k p_k alpha_k (x)
beta_k, term k adds p_k (tr E_jk + tr E_jk sigma_jk)/6 <= p_k tr E_jk/3 to
an outcome's numerator and p_k tr E_jk/2 to its rate, so every outcome
pair, correction set and angle gives at most 2/3, with equality at the
pole channel.

The per-term inequality is checked on the oracle's own quadrature
moments.  The ceiling is checked by running the oracle's postselected
problems on channel stacks, all at once: each channel's (3, 2, 4)
pair-by-set tables, one pair per ``OUTCOME_PAIRS`` entry, go to one
``maximize_ratios`` call with the pair-probability floor and the
success-rate tie window.  The stacks are criterion 3's and a
derandomized search over pure product channels.
"""

import numpy as np
import pytest

from thermotele._optimize import maximize_ratios
from thermotele.averaging import DEFAULT_GRID, HarmonicAverages, _state_batch
from thermotele.classical_limit import _POLE, CLASSICAL_GRID, _random_mixtures
from thermotele.closed_form import MIN_PAIR_PROBABILITY, SUCCESS_TIE_TOL
from thermotele.sweeps import CLASSICAL_LIMIT
from thermotele.teleport import OUTCOME_PAIRS

# criterion 3's stack at validate's default seed: the pole, then the
# random separable channels
SEED, SAMPLES = 20260810 + 3, 10_000


def postselected_optima(stack):
    """Every postselected optimum of a channel stack, (channel, pair, set)."""
    harmonics = HarmonicAverages(stack, CLASSICAL_GRID)
    q, joint = harmonics.q_coef, harmonics.joint_coef
    # D is the pair's probability, the same for every set
    first, second = np.subtract(OUTCOME_PAIRS, 1).T
    num = np.moveaxis(joint[..., first, :] + joint[..., second, :], 1, 0)
    den = np.broadcast_to(np.moveaxis(q[..., first] + q[..., second], 1, 0)[..., None], num.shape)
    values, _, _ = maximize_ratios(num, den, MIN_PAIR_PROBABILITY, SUCCESS_TIE_TOL)
    return values


@pytest.fixture(scope="module")
def optima():
    stack = np.concatenate([_POLE, _random_mixtures(np.random.default_rng(SEED), SAMPLES)])
    return postselected_optima(stack)


def test_no_separable_channel_beats_two_thirds(optima):
    assert optima.shape == (SAMPLES + 1, 2, 4)
    assert np.isfinite(optima).all()
    assert optima.max() <= CLASSICAL_LIMIT + 1e-12


def test_the_pole_channel_saturates_the_ceiling(optima):
    assert abs(optima[0].max() - CLASSICAL_LIMIT) <= 1e-12


# ---------------------------------------------------------------------------
# the per-term inequality on the oracle's moments


def quadrature_moments(grid):
    """E[psi psi+] and E[psi_k psi*_m psi*_x psi_y] over the nodes and
    weights the oracle integrates with."""
    a2, wa = grid.alpha_nodes()
    g, wg = grid.gamma_nodes()
    weights = np.outer(wa, wg).ravel()
    kets = _state_batch(np.repeat(a2, grid.n_gamma), np.tile(g, grid.n_alpha))
    bra = kets.conj()
    second = np.einsum("a,ak,am->km", weights, kets, bra)
    fourth = np.einsum("a,ak,am,ax,ay->kmxy", weights, kets, bra, bra, kets)
    return second, fourth


def unit_trace_positive(rng, count, rank):
    """``count`` random 2x2 matrices A A+ of the given rank, trace 1."""
    a = rng.normal(size=(count, 2, rank)) + 1j * rng.normal(size=(count, 2, rank))
    m = a @ a.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def term_shares(grid, effect, state):
    """A term's numerator share E[<psi|E|psi> <psi|sigma|psi>] and rate
    share E[<psi|E|psi>], per (E, sigma)."""
    second, fourth = quadrature_moments(grid)
    num = np.einsum("nmk,nxy,kmxy->n", effect, state, fourth).real
    den = np.einsum("nmk,km->n", effect, second).real
    return num, den


# the 64x64 quadrature reproduces the exact moments within ~1e-14
MOMENT_TOL = 3e-14


@pytest.mark.parametrize("grid", [DEFAULT_GRID, CLASSICAL_GRID], ids=["64x64", "16x16"])
def test_each_term_keeps_two_thirds_of_its_rate(grid):
    rng = np.random.default_rng(17)
    effect, state = unit_trace_positive(rng, 10_000, 2), unit_trace_positive(rng, 10_000, 2)
    num, den = term_shares(grid, effect, state)
    # tr E = 1, so the rate share is 1/2 and the numerator share at most 1/3
    assert np.max(np.abs(den - 0.5)) <= MOMENT_TOL
    assert np.all(num <= 2.0 / 3.0 * den + 1e-15)


@pytest.mark.parametrize("grid", [DEFAULT_GRID, CLASSICAL_GRID], ids=["64x64", "16x16"])
def test_a_rank_one_term_on_its_own_state_reaches_two_thirds(grid):
    projector = unit_trace_positive(np.random.default_rng(18), 10_000, 1)
    scale = np.random.default_rng(19).uniform(0.1, 2.0, 10_000)[:, None, None]
    num, den = term_shares(grid, scale * projector, projector)
    assert np.max(np.abs(num - 2.0 / 3.0 * den)) <= MOMENT_TOL


# ---------------------------------------------------------------------------
# a derandomized adversarial search over pure product channels


def product_channels(angles):
    """The channels |a><a| (x) |b><b| of rows of Bloch angles
    (theta_a, phi_a, theta_b, phi_b)."""
    def kets(theta, phi):
        return np.stack([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)], axis=-1)

    a, b = kets(angles[:, 0], angles[:, 1]), kets(angles[:, 2], angles[:, 3])
    ket = np.einsum("ni,nj->nij", a, b).reshape(-1, 4)
    return np.einsum("ni,nj->nij", ket, ket.conj())


def best_postselected(angles):
    """Each channel's best postselected efficiency; every candidate must be
    finite and within the ceiling."""
    values = postselected_optima(product_channels(angles)).reshape(len(angles), -1)
    assert np.isfinite(values).all()
    assert values.max() <= CLASSICAL_LIMIT + 1e-12
    return values.max(axis=1)


def test_coordinate_ascent_over_pure_products_stops_at_the_ceiling():
    # every pair of Bloch points on a 6 x 8 grid that avoids the poles
    theta, phi = np.meshgrid((np.arange(6) + 0.5) * np.pi / 6, np.arange(8) * np.pi / 4)
    qubit = np.column_stack([theta.ravel(), phi.ravel()])
    angles = np.hstack([np.repeat(qubit, len(qubit), 0), np.tile(qubit, (len(qubit), 1))])
    values = best_postselected(angles)

    # refine the best eight: move each along the coordinate that gains most,
    # halving its step when none gains
    top = np.argsort(values, kind="stable")[-8:]
    angles, values = angles[top], values[top]
    step = np.full(len(angles), np.pi / 12)
    moves = np.vstack([np.eye(4), -np.eye(4)])
    rows = np.arange(len(angles))
    for _ in range(200):
        if step.max() < 1e-7:
            break
        trial = angles[:, None, :] + step[:, None, None] * moves
        gains = best_postselected(trial.reshape(-1, 4)).reshape(len(angles), len(moves))
        best = gains.argmax(axis=1)
        better = gains[rows, best] > values
        angles[better] = trial[rows, best][better]
        values[better] = gains[rows, best][better]
        step[~better] /= 2
    assert step.max() < 1e-7
    # the search is not idle: it reaches the ceiling, and goes no further
    assert np.all(np.abs(values - CLASSICAL_LIMIT) <= 1e-12)
