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

The check runs the oracle's postselected problems on criterion 3's
channel stack, all at once: each channel's (3, 2, 4) pair-by-set tables,
built as the per-point oracle builds them, go to one ``maximize_ratios``
call with the pair-probability floor and the success-rate tie window.
"""

import numpy as np
import pytest

from thermotele._optimize import maximize_ratios
from thermotele.averaging import HarmonicAverages
from thermotele.classical_limit import _POLE, CLASSICAL_GRID, _random_mixtures
from thermotele.closed_form import MIN_PAIR_PROBABILITY, SUCCESS_TIE_TOL
from thermotele.sweeps import CLASSICAL_LIMIT

# criterion 3's stack at validate's default seed: the pole, then the
# random separable channels
SEED, SAMPLES = 20260810 + 3, 10_000


@pytest.fixture(scope="module")
def optima():
    """Every postselected optimum of the stack, (channel, pair, set)."""
    stack = np.concatenate([_POLE, _random_mixtures(np.random.default_rng(SEED), SAMPLES)])
    harmonics = HarmonicAverages(stack, CLASSICAL_GRID)
    q, joint = harmonics.q_coef, harmonics.joint_coef
    # pair 0 is outcomes 1 + 4, pair 1 outcomes 2 + 3; D is the pair's
    # probability, the same for every set
    num = np.moveaxis(joint[..., [0, 1], :] + joint[..., [3, 2], :], 1, 0)
    den = np.broadcast_to(np.moveaxis(q[..., [0, 1]] + q[..., [3, 2]], 1, 0)[..., None], num.shape)
    values, _, _ = maximize_ratios(num, den, MIN_PAIR_PROBABILITY, SUCCESS_TIE_TOL)
    return values


def test_no_separable_channel_beats_two_thirds(optima):
    assert optima.shape == (SAMPLES + 1, 2, 4)
    assert np.isfinite(optima).all()
    assert optima.max() <= CLASSICAL_LIMIT + 1e-12


def test_the_pole_channel_saturates_the_ceiling(optima):
    assert abs(optima[0].max() - CLASSICAL_LIMIT) <= 1e-12
