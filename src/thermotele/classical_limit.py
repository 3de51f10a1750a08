"""Separable channels and the 2/3 ceiling on entanglement-free teleportation.

A channel shared without entanglement is a convex combination of product
states sum_k p_k rho_A (x) rho_B.  For a single product term the averaged
deterministic efficiency has a tiny closed form in the two Bloch vectors,

    phi sets:  [3 + az bz +/- (ax bx - ay by) sin(2 phi)] / 6
    psi sets:  [3 - az bz +/- (ax bx + ay by) sin(2 phi)] / 6

and its optimum over phi and over all four correction sets never exceeds
2/3.  ``verify_classical_bound`` checks the ceiling through the quadrature
oracle itself (exact optimum over phi and all sets), so it validates these
closed forms rather than assuming them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optimize import maximize_ratio, select
from .averaging import HarmonicAverages, QuadratureGrid
from .densmat import DensityMatrix
from .spin_models import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z
from .teleport import CorrectionLabel

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

    def density(self) -> np.ndarray:
        return 0.5 * (
            IDENTITY2 + self.ax * PAULI_X + self.ay * PAULI_Y + self.az * PAULI_Z
        )

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "BlochVector":
        rho = np.asarray(rho, dtype=complex)
        return cls(
            ax=float(np.trace(PAULI_X @ rho).real),
            ay=float(np.trace(PAULI_Y @ rho).real),
            az=float(np.trace(PAULI_Z @ rho).real),
        )


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
        rho = np.zeros((4, 4), dtype=complex)
        for w, a, b in self.terms:
            # the Kronecker product a (x) b as a broadcast outer product
            x, y = a.density(), b.density()
            rho += w * (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)
        return DensityMatrix(rho)


def product_avg_fidelity(
    a: BlochVector, b: BlochVector, label: CorrectionLabel, phi: float
) -> float:
    """Averaged deterministic efficiency of a product channel a (x) b
    for one correction set at basis angle ``phi``."""
    s = math.sin(2.0 * phi)
    transverse_minus = a.ax * b.ax - a.ay * b.ay
    transverse_plus = a.ax * b.ax + a.ay * b.ay
    longitudinal = a.az * b.az
    label = CorrectionLabel(label)
    if label is CorrectionLabel.PHI_PLUS:
        return (3.0 + longitudinal + transverse_minus * s) / 6.0
    if label is CorrectionLabel.PHI_MINUS:
        return (3.0 + longitudinal - transverse_minus * s) / 6.0
    if label is CorrectionLabel.PSI_PLUS:
        return (3.0 - longitudinal + transverse_plus * s) / 6.0
    return (3.0 - longitudinal - transverse_plus * s) / 6.0


def product_opt_fidelity(a: BlochVector, b: BlochVector) -> float:
    """Best averaged deterministic efficiency of a product channel over
    phi and all four correction sets.  Never exceeds 2/3."""
    phi_best = (3.0 + a.az * b.az + abs(a.ax * b.ax - a.ay * b.ay)) / 6.0
    psi_best = (3.0 - a.az * b.az + abs(a.ax * b.ax + a.ay * b.ay)) / 6.0
    return (phi_best, psi_best)[select([phi_best, psi_best])]


def random_bloch_vector(rng: np.random.Generator) -> BlochVector:
    """Uniform draw from the solid unit ball, by rejection."""
    while True:
        v = rng.uniform(-1.0, 1.0, 3)
        if v @ v <= 1.0:
            return BlochVector(*v)


def random_separable_channel(rng: np.random.Generator) -> SeparableChannel:
    n = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n))
    terms = tuple(
        (float(w), random_bloch_vector(rng), random_bloch_vector(rng))
        for w in weights
    )
    return SeparableChannel(terms)


def oracle_det_optimum(channel, grid: QuadratureGrid) -> float:
    """Deterministic optimum over phi and all correction sets, computed
    entirely through the quadrature oracle's angle coefficients."""
    det = HarmonicAverages(channel, grid).joint_coef.sum(axis=1)
    values = [maximize_ratio(det[:, e]).value for e in range(4)]
    return values[select(values)]


def verify_classical_bound(samples: int, seed: int, grid: QuadratureGrid | None = None):
    """Draw random separable channels and push each through the oracle's
    deterministic optimizer; return the largest efficiency seen.

    The saturating product case (both Bloch vectors at the +z pole) is
    always included, so the returned maximum is at least 2/3 up to
    quadrature roundoff.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    grid = grid or QuadratureGrid(16, 16)
    rng = np.random.default_rng(seed)
    pole = BlochVector(0.0, 0.0, 1.0)
    best = oracle_det_optimum(
        SeparableChannel(((1.0, pole, pole),)).density(), grid
    )
    for _ in range(samples):
        channel = random_separable_channel(rng).density()
        best = max(best, oracle_det_optimum(channel, grid))
    return best
