"""Input-state averages of the teleportation protocol.

The input qubit sqrt(a2)|0> + sqrt(1-a2) e^{i g}|1> is drawn uniformly in
(a2, g) over [0,1] x [0,2pi) with density 1/2pi.  Its Bloch vector has
z = 2 a2 - 1 uniform on [-1, 1] and azimuth g, so this is the uniform
measure on the Bloch sphere.  For every measurement outcome j and
correction set this module averages, by deterministic quadrature,

    qbar_j      = E[Q_j]                 (success rate of outcome j)
    fbar_j      = E[F_j Q_j] / E[Q_j]    (postselected efficiency)
    fbar_det    = E[sum_j F_j Q_j]       (deterministic efficiency)

Both Q_j and F_j Q_j are trigonometric polynomials of degree <= 2 in the
input phase g and polynomials of degree <= 2 in a2, so the default
Gauss-Legendre x uniform grid integrates them exactly; doubling the node
counts only moves results at roundoff level.

Every such average is linear in the 16 entries of the channel matrix.
The quadrature therefore runs once per grid, into the input state's
second and fourth moments, which fix a channel-independent linear map;
a channel's averages are that map applied to its entries.  Only the
Monte Carlo estimator the tests keep as an independent check sums over
inputs per channel.

These averages define ground truth for every closed-form expression in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densmat import channel_matrix
from .teleport import (
    BELL_COS, BELL_SIN, CORRECTION_KEYS, OUTCOME_PAIRS, CorrectionLabel, _U_BY_KEY, pair_index,
)

SET_ORDER = tuple(CorrectionLabel)

# below this average probability a conditional fidelity is undefined
UNDEFINED_QBAR = 1e-14

# the Bell coefficients as 2x2 matrices over (qubit-1, qubit-2) indices
_BELL_COS, _BELL_SIN = BELL_COS.reshape(4, 2, 2), BELL_SIN.reshape(4, 2, 2)


@lru_cache(maxsize=32)
def _gauss_legendre_01(n: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1] (weights sum to 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes in a2, equally spaced nodes in the phase g."""

    n_alpha: int = 64
    n_gamma: int = 64

    def __post_init__(self):
        if self.n_alpha < 8 or self.n_gamma < 8:
            raise ValueError("the quadrature oracle requires at least 8 nodes per axis")

    def alpha_nodes(self):
        return _gauss_legendre_01(self.n_alpha)

    def gamma_nodes(self):
        g = 2.0 * np.pi * np.arange(self.n_gamma) / self.n_gamma
        w = np.full(self.n_gamma, 1.0 / self.n_gamma)
        return g, w


DEFAULT_GRID = QuadratureGrid()


@dataclass(frozen=True)
class AveragedQuantities:
    """Input-averaged success rates and fidelities at one basis angle.

    ``fbar_cond[j, e]`` is indexed by outcome j (rows, j = 1..4) and
    correction-set label e in ``SET_ORDER`` columns; entries with
    qbar below ``UNDEFINED_QBAR`` are NaN with ``defined`` False.  A
    channel stack's averages carry the case axis first, ``phi`` included.
    """

    phi: float | np.ndarray
    qbar: np.ndarray
    fbar_cond: np.ndarray
    fbar_det: np.ndarray
    defined: np.ndarray


def _state_batch(alpha_sq: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Input kets, one row per input coordinate pair."""
    a = np.sqrt(alpha_sq)
    b = np.sqrt(1.0 - alpha_sq) * np.exp(1j * gamma)
    return np.stack([a.astype(complex), b], axis=1)


@lru_cache(maxsize=8)
def _oracle_maps(grid: QuadratureGrid):
    """The quadrature averages on ``grid`` as linear maps of the channel.

    Returns read-only complex arrays ``q_map`` (harmonic, outcome, 16) and
    ``joint_map`` (harmonic, outcome, set, 16); contracting them with the
    flattened channel matrix gives ``q_coef`` and ``joint_coef`` of
    :class:`HarmonicAverages`.  With input ket psi, outcome j projects
    qubits 1 and 2 onto sum_kl B[k, l] |k l>, so Q_j is linear in the
    second moment E[psi_k psi*_m] and F_j Q_j in the fourth moment
    E[psi_k psi*_m psi*_x psi_y]; the node sum runs once, into those.
    """
    a2, wa = grid.alpha_nodes()
    g, wg = grid.gamma_nodes()
    weights = np.outer(wa, wg).ravel()
    kets = _state_batch(np.repeat(a2, grid.n_gamma), np.tile(g, grid.n_alpha))
    bra = kets.conj()
    second = np.einsum("a,ak,am->km", weights, kets, bra)
    fourth = np.einsum("a,ak,am,ax,ay->kmxy", weights, kets, bra, bra, kets)

    # B[k, l] B'[m, n] per harmonic (cos^2, sin^2, cos sin) and outcome
    cc = np.einsum("jkl,jmn->jklmn", _BELL_COS, _BELL_COS)
    ss = np.einsum("jkl,jmn->jklmn", _BELL_SIN, _BELL_SIN)
    cs = np.einsum("jkl,jmn->jklmn", _BELL_COS, _BELL_SIN)
    pieces = np.stack([cc, ss, cs + cs.transpose(0, 3, 4, 1, 2)])

    # channel entries rho[(l, w), (n, v)] flatten to index 8l + 4w + 2n + v
    q_map = np.einsum("hjklmn,km,wv->hjlwnv", pieces, second, np.eye(2)).reshape(3, 4, 16)
    # Bob's correction U for outcome j under set e
    u = np.array([[_U_BY_KEY[CORRECTION_KEYS[lab][j]] for lab in SET_ORDER] for j in range(4)])
    joint_map = np.einsum(
        "hjklmn,kmxy,jexw,jeyv->hjelwnv", pieces, fourth, u, u.conj(), optimize=True
    ).reshape(3, 4, 4, 16)
    q_map.setflags(write=False)
    joint_map.setflags(write=False)
    return q_map, joint_map


def average_all(channel, phi, grid: QuadratureGrid = DEFAULT_GRID) -> AveragedQuantities:
    """Quadrature averages of the full protocol at basis angle ``phi``, or
    of a channel stack (N, 4, 4) with one angle per channel (phi (N,)).

    Conditional fidelities are computed strictly as the ratio of the two
    integrals E[F_j Q_j] / E[Q_j], never as a pointwise average of F_j.
    """
    return HarmonicAverages(channel, grid).at(phi)


class HarmonicAverages:
    """The quadrature averages of one channel, organized by their exact phi
    dependence.

    For every outcome the projected operator is quadratic in
    (cos phi, sin phi), so each averaged quantity is exactly

        u * cos(phi)**2 + v * sin(phi)**2 + s * cos(phi) sin(phi).

    The coefficient tables ``q_coef`` (harmonic, outcome) and
    ``joint_coef`` (harmonic, outcome, set), harmonics in the order
    (u, v, s), are linear in the channel: the quadrature runs once per
    grid, into the input state's moments, and a channel's tables are one
    product of the grid's cached linear map with its 16 matrix entries.
    Evaluating at any angle then costs a few flops, and the angle
    optimizers work on the tables directly.

    A stack of N channels (N, 4, 4) gives tables (N, 3, 4) and
    (N, 3, 4, 4), and the evaluation methods then take one angle per
    channel, phi (N,); each channel keeps the bits it has alone.
    """

    def __init__(self, channel, grid: QuadratureGrid = DEFAULT_GRID):
        q_map, joint_map = _oracle_maps(grid)
        rho = channel_matrix(channel)
        stack = rho.shape[:-2]
        # a matrix-vector product per channel: a stack goes through the same
        # product as a lone channel and keeps its bits, which a gemm over the
        # stack would not
        rho = rho.reshape(stack + (16, 1))
        self.q_coef = (q_map.reshape(12, 16) @ rho).real.reshape(stack + (3, 4))
        self.joint_coef = (joint_map.reshape(48, 16) @ rho).real.reshape(stack + (3, 4, 4))

    @staticmethod
    def _harmonics(phi):
        phi = np.asarray(phi, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        return np.stack([c * c, s * s, c * s], axis=-1)

    def qbar(self, phi):
        """Success rates; shape phi.shape + (4,)."""
        return (self._harmonics(phi)[..., None, :] @ self.q_coef)[..., 0, :]

    def joint(self, phi):
        """E[F_j Q_j] per outcome and set; shape phi.shape + (4, 4)."""
        return np.einsum("...h,...hje->...je", self._harmonics(phi), self.joint_coef)

    def pair_probability(self, phi, pair=OUTCOME_PAIRS[0]):
        """Success rate of postselecting ``pair`` (either order)."""
        first, second = OUTCOME_PAIRS[pair_index(pair)]
        q = self.qbar(phi)
        return q[..., first - 1] + q[..., second - 1]

    def at(self, phi) -> AveragedQuantities:
        """All averages at one angle per channel, as :func:`average_all` returns them."""
        qbar, joint = self.qbar(phi), self.joint(phi)
        defined = qbar >= UNDEFINED_QBAR
        with np.errstate(divide="ignore", invalid="ignore"):
            fbar_cond = np.where(defined[..., None], joint / qbar[..., None], np.nan)
        return AveragedQuantities(
            phi=np.asarray(phi, dtype=float) if np.ndim(phi) else float(phi),
            qbar=qbar,
            fbar_cond=fbar_cond,
            fbar_det=joint.sum(axis=-2),
            defined=defined,
        )
