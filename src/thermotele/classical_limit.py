"""Separable channels and the 2/3 ceiling on entanglement-free teleportation.

A channel shared without entanglement is a convex combination of product
states sum_k p_k rho_A (x) rho_B.  For a single product term the averaged
deterministic efficiency has a tiny closed form in the two Bloch vectors,

    phi sets:  [3 + az bz +/- (ax bx - ay by) sin(2 phi)] / 6
    psi sets:  [3 - az bz +/- (ax bx + ay by) sin(2 phi)] / 6

and its optimum over phi and over all four correction sets never exceeds
2/3 (Massar & Popescu, PRL 74, 1259 (1995)).  ``verify_classical_bound``
checks the ceiling through the quadrature oracle itself (exact optimum
over phi and all sets), so it validates these closed forms rather than
assuming them.

The oracle runs on whole stacks of channels: random channels are drawn
into arrays of weights and Bloch vectors, and their densities are built,
validated, contracted with the oracle's linear map and optimized over phi
together.  Every step works entry by entry or channel by channel, so each
channel gets the bits it would get alone.

The draws keep the stream of a plain loop over ``rng.integers(1, 5)``,
``rng.dirichlet(np.ones(n))`` and 2n rejection loops over
``rng.uniform(-1, 1, 3)``, bit for bit and up to the generator's end state,
with any bit generator, but make a few block calls per channel.  The
weights are normalized Exp(1) draws, which is how numpy draws a flat
Dirichlet.  The ball points are tried in one block of attempts; the
generator is then put back to its state before the block and advanced over
exactly the attempts used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optimize import maximize_ratios, select
from .averaging import HarmonicAverages, QuadratureGrid
from .densmat import DensityMatrix
from .spin_models import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z

BLOCH_NORM_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """A single-qubit state as a point in the closed unit ball."""

    ax: float
    ay: float
    az: float

    def __post_init__(self):
        norm_sq = self.ax**2 + self.ay**2 + self.az**2
        if norm_sq > 1.0 + BLOCH_NORM_TOL:
            raise ValueError(f"Bloch vector norm exceeds 1 ({math.sqrt(norm_sq)})")


@dataclass(frozen=True)
class SeparableChannel:
    """Convex combination of product states; the entanglement-free channel."""

    terms: tuple  # of (weight, BlochVector, BlochVector)

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("need at least one product term")
        total = sum(w for w, _, _ in self.terms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        if any(w < 0.0 for w, _, _ in self.terms):
            raise ValueError("weights must be non-negative")

    def density(self) -> DensityMatrix:
        weights = np.array([w for w, _, _ in self.terms])
        a = np.array([(x.ax, x.ay, x.az) for _, x, _ in self.terms])
        b = np.array([(y.ax, y.ay, y.az) for _, _, y in self.terms])
        return DensityMatrix(_mixtures(weights, a, b))


def _bloch_densities(v: np.ndarray) -> np.ndarray:
    """The states 0.5 (1 + v . sigma) of Bloch vectors ``v`` (..., 3), as
    (..., 2, 2) arrays."""
    ax, ay, az = (v[..., k, None, None] for k in range(3))
    return 0.5 * (IDENTITY2 + ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z)


def _mixtures(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Densities sum_k weights[..., k] a_k (x) b_k of the product terms
    with Bloch vectors ``a``, ``b`` (..., terms, 3), as (..., 4, 4) arrays;
    the terms are added in order, one at a time."""
    rho = np.zeros(weights.shape[:-1] + (4, 4), dtype=complex)
    for k in range(weights.shape[-1]):
        x, y = _bloch_densities(a[..., k, :]), _bloch_densities(b[..., k, :])
        # the Kronecker product x (x) y as a broadcast outer product
        kron = (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(rho.shape)
        rho += weights[..., k, None, None] * kron
    return rho


# a random separable channel mixes 1 to MAX_TERMS product terms
MAX_TERMS = 4


# ball-point attempts drawn per block; 2 MAX_TERMS points need ~15 on average
BALL_BLOCK = 24


def _ball_points(rng: np.random.Generator, need: int) -> np.ndarray:
    """``need`` uniform draws (need, 3) from the solid unit ball, by
    rejection, with the bits and the generator's end state of ``need``
    one-at-a-time loops over ``rng.uniform(-1, 1, 3)`` and ``v @ v <= 1``.

    One block of attempts is drawn, the state before it is restored and
    exactly the doubles of the attempts used are drawn again.  Each row's
    ``v @ v`` is its own (1, 3) @ (3, 1) product, which gives the 1-D dot
    product's bits.
    """
    state = rng.bit_generator.state
    block = rng.uniform(-1.0, 1.0, (BALL_BLOCK, 3))
    norms = (block[:, None, :] @ block[:, :, None]).ravel()
    accepted = (norms <= 1.0).nonzero()[0][:need]
    if len(accepted) < need:  # the whole block is used
        return np.concatenate([block[accepted], _ball_points(rng, need - len(accepted))])
    rng.bit_generator.state = state
    # uniform(-1, 1) and random() both take one double per entry
    rng.random(3 * (accepted[-1] + 1))
    return block.take(accepted, axis=0)


def _flat_dirichlet(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(n))``, with its bits and its use of the
    stream: numpy normalizes Gamma(1) = Exp(1) draws by their sum, taken in
    order from 0.0."""
    draws = rng.standard_exponential(n)
    acc = 0.0
    for x in draws.tolist():
        acc += x
    return draws * (1.0 / acc)


def _draw(rng: np.random.Generator, weights: np.ndarray, terms: np.ndarray) -> int:
    """Draw one random separable channel into zeroed rows ``weights``
    (MAX_TERMS,) and ``terms`` (MAX_TERMS, 2, 3), the Bloch vectors a_k and
    b_k of each term, and return its number of terms; the unused terms
    keep weight 0.

    This is the one definition of the random stream: the term count, the
    Dirichlet weights, then both Bloch vectors of each term in turn.
    """
    n = int(rng.integers(1, MAX_TERMS + 1))
    weights[:n] = _flat_dirichlet(rng, n)
    terms[:n] = _ball_points(rng, 2 * n).reshape(n, 2, 3)
    return n


def random_separable_channel(rng: np.random.Generator) -> SeparableChannel:
    weights, terms = np.zeros(MAX_TERMS), np.zeros((MAX_TERMS, 2, 3))
    n = _draw(rng, weights, terms)
    return SeparableChannel(tuple(
        (float(weights[k]), BlochVector(*terms[k, 0]), BlochVector(*terms[k, 1]))
        for k in range(n)
    ))


def oracle_det_optimum(channel, grid: QuadratureGrid):
    """Deterministic optimum over phi and all correction sets, computed
    entirely through the quadrature oracle's angle coefficients.

    ``channel`` is one channel, which gives a float, or a stack (N, 4, 4),
    which gives an array (N,) of the optima each channel has alone.
    """
    det = np.moveaxis(HarmonicAverages(channel, grid).joint_coef.sum(axis=-2), -2, 0)
    # D = 1, the triple (1, 1, 0), for every set, as a view
    unit = np.broadcast_to(np.reshape([1.0, 1.0, 0.0], (3,) + (1,) * (det.ndim - 1)), det.shape)
    values, _, _ = maximize_ratios(det, unit)  # (..., set)
    sets = [values[..., e] for e in range(4)]
    best = np.choose(select(sets), sets)
    return best if best.ndim else float(best)


def _random_mixtures(rng: np.random.Generator, count: int) -> np.ndarray:
    """Densities (count, 4, 4) of ``count`` random separable channels,
    drawn as ``random_separable_channel`` draws them, one after another."""
    weights, terms = np.zeros((count, MAX_TERMS)), np.zeros((count, MAX_TERMS, 2, 3))
    for i in range(count):
        _draw(rng, weights[i], terms[i])
    return _mixtures(weights, terms[..., 0, :], terms[..., 1, :])


# the saturating product channel as a stack row over MAX_TERMS terms: both
# Bloch vectors of term 0 at the +z pole; the unused terms add +0.0
_POLE_BLOCH = np.eye(1, MAX_TERMS)[..., None] * [0.0, 0.0, 1.0]
_POLE = _mixtures(np.eye(1, MAX_TERMS), _POLE_BLOCH, _POLE_BLOCH)
CLASSICAL_GRID = QuadratureGrid(16, 16)


def _classical_optima(samples: int, seed: int, grid: QuadratureGrid) -> np.ndarray:
    """The oracle's deterministic optimum of each channel of one stack: the
    pole channel, then ``samples`` random separable channels drawn at ``seed``."""
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    stack = np.concatenate([_POLE, _random_mixtures(np.random.default_rng(seed), samples)])
    return oracle_det_optimum(stack, grid)


def verify_classical_bound(samples: int, seed: int, grid: QuadratureGrid | None = None):
    """The largest of ``_classical_optima``, 2/3 (the pole) up to roundoff."""
    return float(np.max(_classical_optima(samples, seed, grid or CLASSICAL_GRID)))
