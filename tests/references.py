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

The level-crossing section is the search that
``thermotele.spin_models.critical_point`` ran before it returned closed
forms: ``_ground_gap_xxz`` and ``_bisect``, moved here unchanged, and
``bisected_crossing``, which calls them with the old brackets.

The thermal-state section is ``thermotele.spin_models.thermal_state`` as
it was before it wrote the state's entries from the two blocks: it embeds
the four levels of ``block_spectrum`` in the full basis and sums their
weighted outer products.  ``thermal_state_by_levels`` keeps it verbatim,
with ``block_spectrum`` and ``_sym2_eigenpairs`` (array eigenvectors,
``np.linalg.norm`` norms) as they were then (``block_spectrum`` forms its
``DerivedParams`` directly, as ``HeisenbergParams.derived`` did), so the
tests can compare the library's states with it byte for byte.

The oracle section holds ``thermotele.sweeps._oracle_point`` as it was
when it solved the four deterministic problems of a point as four columns
of ``maximize_form`` (now ``scalar_reference.maximize_form``), kept
verbatim as ``oracle_point_by_form`` but for that import, and
``thermotele.teleport.bell_basis`` as it was when it wrote each ket
literally, kept verbatim as ``bell_basis_by_literals``.  The tests compare
the library's oracle records and Bell kets with them byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scalar_reference

from thermotele._optimize import labeled, maximize_ratio, select
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
from thermotele.closed_form import MIN_PAIR_PROBABILITY, SUCCESS_TIE_TOL
from thermotele.densmat import (
    HERMITICITY_TOL,
    DensityMatrix,
    _as_array,
    channel_matrix,
    cmatrix,
)
from thermotele.spin_models import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlockLevel,
    DerivedParams,
    HeisenbergParams,
    ThermalState,
    XXZFieldParams,
    block_spectrum,
    from_xxz_field,
    require_temperature,
    thermal_state,
)
from thermotele.sweeps import _SET_FAMILIES
from thermotele.teleport import (
    _U_BY_KEY,
    CORRECTION_KEYS,
    OUTCOME_PAIRS,
    CorrectionLabel,
    GeneralizedBellBasis,
)

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


# ---------------------------------------------------------------------------
# level crossings by bisection


def _ground_gap_xxz(j: float, delta: float, h: float) -> float:
    """Difference between the phi- and psi-sector ground energies."""
    levels = block_spectrum(from_xxz_field(XXZFieldParams(j, delta, h)))
    phi = min(lv.energy for lv in levels if lv.sector == "phi")
    psi = min(lv.energy for lv in levels if lv.sector == "psi")
    return phi - psi


def _bisect(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("no level crossing found")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def bisected_crossing(model: str, *, field_h: float, exchange_j: float = 1.0) -> float:
    """The crossing as the library located it by bisection: J in
    [1e-6, 10] for ``xxx_field`` and Delta in [-5, 5] for ``xxz_field``."""
    if model == "xxx_field":
        return _bisect(lambda j: _ground_gap_xxz(j, 1.0, field_h), 1e-6, 10.0)
    return _bisect(lambda d: _ground_gap_xxz(exchange_j, d, field_h), -5.0, 5.0)


# ---------------------------------------------------------------------------
# the thermal state as a sum of four outer products


def _sym2_eigenpairs(a: float, b: float, c: float):
    """Eigenpairs of the real symmetric 2x2 block [[a, c], [c, b]].

    Returns ((lam_plus, u_plus), (lam_minus, u_minus)) with lam_plus >=
    lam_minus and orthonormal real eigenvectors.
    """
    mean = 0.5 * (a + b)
    r = math.hypot(0.5 * (a - b), c)
    lam_plus, lam_minus = mean + r, mean - r
    if r <= 1e-300:
        return (lam_plus, np.array([1.0, 0.0])), (lam_minus, np.array([0.0, 1.0]))
    # two algebraically equivalent constructions; pick the better conditioned.
    # Both are scaled by the power of two nearest 1/r, which changes no bit
    # of the result but keeps their norms from underflowing for tiny blocks
    scale = math.ldexp(1.0, -math.frexp(r)[1])
    u1 = np.array([c, lam_plus - a]) * scale
    u2 = np.array([lam_plus - b, c]) * scale
    u = u1 if np.linalg.norm(u1) >= np.linalg.norm(u2) else u2
    u = u / np.linalg.norm(u)
    return (lam_plus, u), (lam_minus, np.array([-u[1], u[0]]))


def block_spectrum_by_levels(p: HeisenbergParams):
    """Analytic spectrum of the two 2x2 invariant blocks.

    Returns four ``BlockLevel`` entries ordered as (phi+, phi-, psi+, psi-),
    i.e. energies (jz + eta, jz - eta, -jz + chi, -jz - chi).
    """
    d = DerivedParams.from_couplings(p.jx, p.jy, p.ha, p.hb)
    # phi block on (|00>, |11>): [[jz + sigma_h, delta_j], [delta_j, jz - sigma_h]]
    (ep, up), (em, um) = _sym2_eigenpairs(
        p.jz + d.sigma_h, p.jz - d.sigma_h, d.delta_j
    )
    levels = []
    for e, u in ((ep, up), (em, um)):
        vec = np.zeros(4)
        vec[0], vec[3] = u[0], u[1]
        levels.append(BlockLevel("phi", e, vec))
    # psi block on (|01>, |10>): [[-jz + delta_h, sigma_j], [sigma_j, -jz - delta_h]]
    (ep, up), (em, um) = _sym2_eigenpairs(
        -p.jz + d.delta_h, -p.jz - d.delta_h, d.sigma_j
    )
    for e, u in ((ep, up), (em, um)):
        vec = np.zeros(4)
        vec[1], vec[2] = u[0], u[1]
        levels.append(BlockLevel("psi", e, vec))
    return tuple(levels)


def thermal_state_by_levels(p: HeisenbergParams, kT: float) -> ThermalState:
    """exp(-H/kT) / Z built from the analytic block spectrum.

    The Boltzmann weights are computed against the ground energy, so
    arbitrarily low temperatures (beta up to ~1e3 and beyond) are safe.
    """
    require_temperature(kT)
    beta = 1.0 / kT
    levels = block_spectrum_by_levels(p)
    energies = np.array([lv.energy for lv in levels])
    # a product that overflows is -inf, whose weight 0 is the right one
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (energies - energies.min()))
    z = float(weights.sum())
    rho = np.zeros((4, 4), dtype=complex)
    for lv, w in zip(levels, weights):
        rho += (w / z) * np.outer(lv.vector, lv.vector)
    return ThermalState(rho=DensityMatrix(rho), beta=beta)


# ---------------------------------------------------------------------------
# the oracle point with its column-wise deterministic optima, and the
# literal Bell kets


def oracle_point_by_form(p: HeisenbergParams, kt: float, grid: QuadratureGrid):
    """Oracle optima of one point as (deterministic, probabilistic)
    results: every set, and for the probabilistic protocol every outcome
    pair, is optimized over phi, then the shared rule picks one.

    The probabilistic candidates follow the closed-form optimizer's rules:
    angles below MIN_PAIR_PROBABILITY are unreachable, and fidelity ties
    go to the larger success rate.
    """
    harmonics = HarmonicAverages(thermal_state(p, kt).rho, grid)
    # the sets' deterministic optima, one column per set
    det_values, det_phis = scalar_reference.maximize_form(harmonics.joint_coef.sum(axis=1))
    det_values, det_phis = det_values.tolist(), det_phis.tolist()
    k = select(det_values)
    # both pairs' (u, v, s) tables at once: column 0 is outcomes 1 + 4,
    # column 1 outcomes 2 + 3
    q, joint = harmonics.q_coef, harmonics.joint_coef
    dens = (q[:, [0, 1]] + q[:, [3, 2]]).T.tolist()
    nums = (joint[:, [0, 1]] + joint[:, [3, 2]]).transpose(1, 2, 0).tolist()
    probs = [
        maximize_ratio(num, den, floor=MIN_PAIR_PROBABILITY, tie_tol=SUCCESS_TIE_TOL)
        for den, pair_nums in zip(dens, nums)
        for num in pair_nums
    ]
    # candidate j is set j % 4 of pair j // 4
    j = select([opt.value for opt in probs])
    prob = probs[j]
    return (
        labeled(*_SET_FAMILIES[k], None, det_values[k], det_phis[k]),
        labeled(*_SET_FAMILIES[j % 4], OUTCOME_PAIRS[j // 4], prob.value, prob.phi, prob.den),
    )


def bell_basis_by_literals(phi: float) -> GeneralizedBellBasis:
    """Build the generalized Bell basis at measurement angle ``phi``.

    ``phi`` is reduced mod pi (the projectors have period pi: shifting phi
    by pi only flips the sign of every ket).
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi = float(phi) % math.pi
    c, s = math.cos(phi), math.sin(phi)
    kets = (
        np.array([c, 0, 0, s], dtype=complex),
        np.array([s, 0, 0, -c], dtype=complex),
        np.array([0, c, s, 0], dtype=complex),
        np.array([0, s, -c, 0], dtype=complex),
    )
    projectors = tuple(np.outer(k, k.conj()) for k in kets)
    return GeneralizedBellBasis(phi=phi, kets=kets, projectors=projectors)
