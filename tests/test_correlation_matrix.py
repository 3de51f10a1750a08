"""Independent physics for the deterministic protocol: the correlation
matrix T_ij = tr(rho sigma_i (x) sigma_j) of the channel.

The deterministic efficiency of correction set e at basis angle phi is
1/2 + (sin 2phi (s_x T_xx + s_y T_yy) + s_z T_zz) / 6, with the sign
patterns (s_x, s_y, s_z) = phi+ (+, -, +), phi- (-, +, +), psi+ (+, +, -)
and psi- (-, -, -).  So its optimum over phi and the four sets is

    1/2 + max(|T_xx - T_yy| + T_zz, |T_xx + T_yy| - T_zz) / 6,

three traces of rho that neither engine's code path computes.  For a
separable channel N(rho) = tr|T| <= 1 (R. Horodecki, M. Horodecki and
P. Horodecki, Phys. Lett. A 222, 21 (1996)), which bounds this optimum by
2/3: the classical limit that criterion 3 checks through the oracle.
"""

import math

import numpy as np
import pytest

from thermotele.averaging import DEFAULT_GRID
from thermotele.classical_limit import (
    _POLE,
    CLASSICAL_GRID,
    _random_mixtures,
    oracle_det_optimum,
)
from thermotele.closed_form import reconciled_det_optimal
from thermotele.spin_models import PAULI_X, PAULI_Y, PAULI_Z, HeisenbergParams, thermal_state
from thermotele.sweeps import _oracle_point

# criterion 3's stack: the pole channel, then 10,000 channels drawn at the
# seed ``validate`` gives it by default
CRITERION_3_SEED = 20260813
# pairs sigma_i (x) sigma_j as (3, 3, 4, 4)
_SIGMA_PAIRS = np.array([[np.kron(a, b) for b in (PAULI_X, PAULI_Y, PAULI_Z)]
                         for a in (PAULI_X, PAULI_Y, PAULI_Z)])


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """T (..., 3, 3) of the channels ``rho`` (..., 4, 4)."""
    return np.einsum("ijab,...ba->...ij", _SIGMA_PAIRS, rho).real


def det_optimum(rho: np.ndarray) -> np.ndarray:
    """The deterministic optimum over phi and all sets, from T's diagonal."""
    t = correlation_matrix(rho)
    txx, tyy, tzz = t[..., 0, 0], t[..., 1, 1], t[..., 2, 2]
    return 0.5 + np.maximum(abs(txx - tyy) + tzz, abs(txx + tyy) - tzz) / 6.0


@pytest.fixture(scope="module")
def thermal_sample():
    """3,000 thermal channels: couplings U(-3, 3), kT log-uniform in [1e-2, 1e2]."""
    rng = np.random.default_rng(3)
    params = [HeisenbergParams(*rng.uniform(-3.0, 3.0, 5)) for _ in range(3000)]
    kts = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3000))
    rhos = np.array([thermal_state(p, kt).rho.mat for p, kt in zip(params, kts)])
    return params, kts, rhos


@pytest.fixture(scope="module")
def criterion_3_stack():
    rng = np.random.default_rng(CRITERION_3_SEED)
    return np.concatenate([_POLE, _random_mixtures(rng, 10_000)])


def test_closed_engine_deterministic_optimum(thermal_sample):
    params, kts, rhos = thermal_sample
    closed = [r.best_value for r in reconciled_det_optimal(params, 1.0 / kts)]
    assert np.max(np.abs(np.array(closed) - det_optimum(rhos))) <= 1e-14


def test_oracle_deterministic_optimum(thermal_sample, criterion_3_stack):
    params, kts, rhos = thermal_sample
    assert np.max(np.abs(oracle_det_optimum(rhos, DEFAULT_GRID) - det_optimum(rhos))) <= 1e-14
    # the sweep engine's own per-point path, on a share of the sample
    for p, kt, expected in zip(params[:200], kts, det_optimum(rhos)):
        det, _ = _oracle_point(p, kt, DEFAULT_GRID)
        assert abs(det.best_value - expected) <= 1e-14
    optima = oracle_det_optimum(criterion_3_stack, CLASSICAL_GRID)
    assert np.max(np.abs(optima - det_optimum(criterion_3_stack))) <= 1e-14


def test_separable_channels_have_n_at_most_one(criterion_3_stack):
    t = correlation_matrix(criterion_3_stack)
    n = np.linalg.svd(t, compute_uv=False).sum(axis=-1)
    assert np.max(n) <= 1.0 + 1e-12
    # the pole channel saturates it: T = diag(0, 0, 1)
    assert abs(n[0] - 1.0) <= 1e-15
