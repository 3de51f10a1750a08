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

The last sections hold more library code that only tests called, moved
here unchanged: the dense linear algebra of ``thermotele.densmat``
(``kron``, ``is_hermitian``, ``hermitian_eigen``, ``gibbs_density``),
``thermotele.spin_models.build_hamiltonian``, ``det_for`` (formerly the
method ``AveragedQuantities.det_for``) and the Monte Carlo estimator
``average_all_montecarlo`` of ``thermotele.averaging`` with its helper
``_rotated_kets``.  The estimator returns ``MonteCarloAverages``, which
adds its standard errors (formerly optional fields of
``AveragedQuantities``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scalar_reference

from thermotele._optimize import select
from thermotele.averaging import (
    _BELL_COS,
    _BELL_SIN,
    SET_ORDER,
    UNDEFINED_QBAR,
    AveragedQuantities,
    HarmonicAverages,
    QuadratureGrid,
    _state_batch,
)
from thermotele.classical_limit import BlochVector, SeparableChannel
from thermotele.densmat import (
    HERMITICITY_TOL,
    DensityMatrix,
    _as_array,
    channel_matrix,
    cmatrix,
)
from thermotele.spin_models import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z, HeisenbergParams
from thermotele.teleport import _U_BY_KEY, CORRECTION_KEYS, CorrectionLabel

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


# ---------------------------------------------------------------------------
# dense linear algebra (formerly thermotele.densmat)


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product restricted to total dimension <= 8.

    Parameters
    ----------
    a, b : square complex matrices with dimensions in {2, 4, 8}

    Returns
    -------
    The (dim_a * dim_b)-dimensional Kronecker product a (x) b.
    """
    a = cmatrix(_as_array(a))
    b = cmatrix(_as_array(b))
    if a.shape[0] * b.shape[0] > 8:
        raise ValueError("unsupported dimension")
    return np.kron(a, b)


def hermitian_eigen(m, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : square complex matrix, Hermitian within ``tol``

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that m = V diag(w) V^dagger.
    """
    m = cmatrix(_as_array(m))
    if not is_hermitian(m, tol):
        raise ValueError("expected Hermitian")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return w, v


def gibbs_density(h, beta: float):
    """Normalized thermal state exp(-beta h)/Tr[exp(-beta h)].

    Works at arbitrarily large ``beta``: the spectrum is shifted by its
    minimum before exponentiating, and the common factor cancels in the
    normalization.  Returns ``(rho, z_shifted)`` where ``z_shifted`` is the
    partition function of the shifted spectrum.
    """
    w, v = hermitian_eigen(h)
    weights = np.exp(-beta * (w - w.min()))
    z = float(weights.sum())
    rho = (v * (weights / z)) @ v.conj().T
    return rho, z


# ---------------------------------------------------------------------------
# the Hamiltonian matrix (formerly thermotele.spin_models)


def build_hamiltonian(p: HeisenbergParams) -> np.ndarray:
    """Assemble the 4x4 Hamiltonian matrix in the computational basis."""
    return (
        p.jx * np.kron(PAULI_X, PAULI_X)
        + p.jy * np.kron(PAULI_Y, PAULI_Y)
        + p.jz * np.kron(PAULI_Z, PAULI_Z)
        + p.ha * np.kron(PAULI_Z, IDENTITY2)
        + p.hb * np.kron(IDENTITY2, PAULI_Z)
    )


# ---------------------------------------------------------------------------
# Monte Carlo averages (formerly thermotele.averaging)


def det_for(av: AveragedQuantities, label: CorrectionLabel) -> float:
    return float(av.fbar_det[SET_ORDER.index(CorrectionLabel(label))])


def _rotated_kets(kets: np.ndarray):
    """kets premultiplied by U^dagger for each distinct correction Pauli."""
    return {key: kets @ u.conj() for key, u in _U_BY_KEY.items()}


@dataclass(frozen=True)
class MonteCarloAverages(AveragedQuantities):
    """The Monte Carlo estimate of the averages with its standard errors."""

    qbar_stderr: np.ndarray
    fbar_cond_stderr: np.ndarray
    fbar_det_stderr: np.ndarray


def average_all_montecarlo(
    channel, phi: float, samples: int, seed: int
) -> MonteCarloAverages:
    """Monte Carlo estimate of the same averages, with standard errors.

    Sampling uses numpy's seeded PCG64 generator, so a fixed seed
    reproduces the output bit for bit.  Conditional-fidelity errors come
    from the delta method for the ratio estimator.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 Monte Carlo samples")
    rng = np.random.default_rng(seed)
    alpha_sq = rng.uniform(0.0, 1.0, samples)
    gamma = rng.uniform(0.0, 2.0 * np.pi, samples)
    ch_t = channel_matrix(channel).reshape(2, 2, 2, 2)
    kets = _state_batch(alpha_sq, gamma)
    rho_in = np.einsum("ai,aj->aij", kets, kets.conj())
    rot = _rotated_kets(kets)
    c, s = np.cos(phi), np.sin(phi)

    q_samples = np.empty((4, samples))
    fq_samples = {}  # (j, pauli-key) -> per-sample F_j Q_j
    for j in range(4):
        coeff = c * _BELL_COS[j] + s * _BELL_SIN[j]
        energy = np.einsum(
            "kl,mn,akm,lwnv->awv", coeff, coeff.conj(), rho_in, ch_t, optimize=True
        )
        q_samples[j] = np.einsum("aww->a", energy).real
        for key, kr in rot.items():
            fq_samples[(j, key)] = np.einsum(
                "aw,awv,av->a", kr.conj(), energy, kr
            ).real

    qbar = q_samples.mean(axis=1)
    qbar_se = q_samples.std(axis=1, ddof=1) / np.sqrt(samples)

    joint = np.empty((4, 4))
    joint_samples = np.empty((4, 4, samples))
    for j in range(4):
        for e, lab in enumerate(SET_ORDER):
            fq = fq_samples[(j, CORRECTION_KEYS[lab][j])]
            joint_samples[j, e] = fq
            joint[j, e] = fq.mean()

    defined = qbar >= UNDEFINED_QBAR
    with np.errstate(divide="ignore", invalid="ignore"):
        fbar_cond = np.where(defined[:, None], joint / qbar[:, None], np.nan)
    cond_se = np.full((4, 4), np.nan)
    for j in range(4):
        if not defined[j]:
            continue
        for e in range(4):
            resid = joint_samples[j, e] - fbar_cond[j, e] * q_samples[j]
            cond_se[j, e] = np.sqrt(resid.var(ddof=1) / samples) / qbar[j]

    det_samples = joint_samples.sum(axis=0)
    fbar_det = det_samples.mean(axis=1)
    det_se = det_samples.std(axis=1, ddof=1) / np.sqrt(samples)

    return MonteCarloAverages(
        phi=float(phi),
        qbar=qbar,
        fbar_cond=fbar_cond,
        fbar_det=fbar_det,
        defined=defined,
        qbar_stderr=qbar_se,
        fbar_cond_stderr=cond_se,
        fbar_det_stderr=det_se,
    )
