"""Library code that only tests call, kept here as independent references.

``product_avg_fidelity``, ``product_opt_fidelity``, ``bloch_from_density``
and ``bloch_density`` (formerly ``BlochVector.from_density`` and
``BlochVector.density``) and ``random_bloch_vector`` are the closed forms
and helpers that ``thermotele.classical_limit`` carried for its tests,
moved here unchanged.

The rest is the classical-bound oracle as it ran before it worked on
stacks: one channel at a time, drawn term by term into ``BlochVector``s,
assembled with the scalar arithmetic of ``SeparableChannel.density``, and
optimized by the scalar optimizer of ``scalar_reference``.  Tests assert
that the stacked code reproduces its stream, densities and optima bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
import scalar_reference

from thermotele._optimize import select
from thermotele.averaging import HarmonicAverages, QuadratureGrid
from thermotele.classical_limit import BlochVector, SeparableChannel
from thermotele.densmat import DensityMatrix
from thermotele.spin_models import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z
from thermotele.teleport import CorrectionLabel

# ---------------------------------------------------------------------------
# product channels


def bloch_density(v: BlochVector) -> np.ndarray:
    return 0.5 * (IDENTITY2 + v.ax * PAULI_X + v.ay * PAULI_Y + v.az * PAULI_Z)


def bloch_from_density(rho: np.ndarray) -> BlochVector:
    rho = np.asarray(rho, dtype=complex)
    return BlochVector(
        ax=float(np.trace(PAULI_X @ rho).real),
        ay=float(np.trace(PAULI_Y @ rho).real),
        az=float(np.trace(PAULI_Z @ rho).real),
    )


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


# ---------------------------------------------------------------------------
# the oracle, one channel at a time


def separable_density(channel: SeparableChannel) -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    for w, a, b in channel.terms:
        # the Kronecker product a (x) b as a broadcast outer product
        x, y = bloch_density(a), bloch_density(b)
        rho += w * (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)
    return DensityMatrix(rho)


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
    values = [scalar_reference.maximize_ratio(det[:, e]).value for e in range(4)]
    return values[select(values)]


def classical_optima(samples: int, seed: int, grid: QuadratureGrid) -> list:
    """The optima ``verify_classical_bound`` took the maximum of, the
    saturating pole channel first, as its per-channel loop computed them."""
    rng = np.random.default_rng(seed)
    pole = BlochVector(0.0, 0.0, 1.0)
    optima = [oracle_det_optimum(separable_density(SeparableChannel(((1.0, pole, pole),))), grid)]
    for _ in range(samples):
        channel = separable_density(random_separable_channel(rng))
        optima.append(oracle_det_optimum(channel, grid))
    return optima
