"""Two-qubit Heisenberg-family Hamiltonians and their thermal states.

The general Hamiltonian is

    H = jx X(x)X + jy Y(x)Y + jz Z(x)Z + ha Z(x)1 + hb 1(x)Z

with k_B = 1 throughout, so temperatures always enter as the product kT.
H is block diagonal in the computational basis: the "phi" sector spans
{|00>, |11>} with energies jz +/- eta and the "psi" sector spans
{|01>, |10>} with energies -jz +/- chi, where eta and chi are the sector
gap parameters built from the coupling sums and differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densmat import DensityMatrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def _require_finite(**fields):
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_temperature(kT) -> None:
    """Reject a kT that is not positive or whose 1/kT overflows; kT = inf
    (beta = 0) is valid."""
    if not (kT > 0.0 and 1.0 / float(kT) < math.inf):
        raise ValueError(f"temperature must be positive with a finite 1/kT, got kT = {kT}")


def reject_keys(model: str, missing, unread) -> None:
    """Raise one ValueError naming every missing and every unread key of
    ``model``, each as the caller names it, unless both lists are empty."""

    def listed(names):
        return f"{', '.join(names[:-1])} and {names[-1]}" if len(names) > 1 else names[0]

    parts = []
    if missing:
        parts.append(f"needs {'a value' if len(missing) == 1 else 'values'} for {listed(missing)}")
    if unread:
        parts.append(f"does not read {listed(unread)}")
    if parts:
        raise ValueError(f"model {model!r} " + "; it ".join(parts))


@dataclass(frozen=True)
class HeisenbergParams:
    """Raw couplings (jx, jy, jz) and on-site z fields (ha, hb)."""

    jx: float
    jy: float
    jz: float
    ha: float = 0.0
    hb: float = 0.0

    def __post_init__(self):
        # the largest energy gap, between sectors or within one, bounds
        # every energy and gap either engine forms; it is finite only if
        # every coupling is, so the fields are named only when it is not
        jx, jy, ha, hb = self.jx, self.jy, self.ha, self.hb
        eta, chi = math.hypot(jx - jy, ha + hb), math.hypot(ha - hb, jx + jy)
        if not math.isfinite(max(2.0 * abs(self.jz) + eta + chi, 2.0 * max(eta, chi))):
            _require_finite(jx=jx, jy=jy, jz=self.jz, ha=ha, hb=hb)
            raise ValueError("couplings too large: their largest energy gap overflows")

    def derived(self) -> "DerivedParams":
        return DerivedParams.from_couplings(self.jx, self.jy, self.ha, self.hb)


def elementwise(fn, nin: int):
    """The ``math`` function ``fn`` applied to floats or, entry by entry,
    to arrays (which come back as float arrays).

    numpy's own exp and hypot round differently from libm in the last bit,
    so expressions that must give the same bits for a point alone and in
    a batch call libm on every entry.
    """
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(*args):
        for a in args:
            if isinstance(a, np.ndarray):
                return ufunc(*args).astype(float)
        return fn(*args)

    return apply


_hypot = elementwise(math.hypot, 2)


@dataclass(frozen=True)
class DerivedParams:
    """Coupling sums/differences and the two sector gap parameters.

    Fields are floats for one coupling set or equal-length arrays for a
    batch of them.
    """

    delta_j: float | np.ndarray
    sigma_j: float | np.ndarray
    delta_h: float | np.ndarray
    sigma_h: float | np.ndarray
    eta: float | np.ndarray
    chi: float | np.ndarray

    @classmethod
    def from_couplings(cls, jx, jy, ha, hb) -> "DerivedParams":
        """From the xy couplings and the two fields, floats or arrays."""
        delta_j = jx - jy
        sigma_j = jx + jy
        delta_h = ha - hb
        sigma_h = ha + hb
        return cls(
            delta_j=delta_j,
            sigma_j=sigma_j,
            delta_h=delta_h,
            sigma_h=sigma_h,
            eta=_hypot(delta_j, sigma_h),
            chi=_hypot(delta_h, sigma_j),
        )


@dataclass(frozen=True)
class XYFieldParams:
    """XY chain in a transverse field: lam is the inverse field strength."""

    lam: float
    zeta: float

    def __post_init__(self):
        _require_finite(lam=self.lam, zeta=self.zeta)
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not (-1.0 <= self.zeta <= 1.0):
            raise ValueError(f"zeta must lie in [-1, 1], got {self.zeta}")


@dataclass(frozen=True)
class XXZFieldParams:
    """XXZ chain in a z field: exchange J, anisotropy Delta, field h."""

    exchange_j: float
    delta: float
    field_h: float

    def __post_init__(self):
        _require_finite(
            exchange_j=self.exchange_j, delta=self.delta, field_h=self.field_h
        )


def from_xy_field(q: XYFieldParams) -> HeisenbergParams:
    """Map (lam, zeta) onto raw couplings.

    zeta = +/-1 gives the transverse-field Ising model, zeta = 0 the XX
    model.  The overall sign follows the literal model definition:
    jx = -lam (1+zeta), jy = -lam (1-zeta), jz = 0, ha = hb = -1.
    """
    return HeisenbergParams(
        jx=-q.lam * (1.0 + q.zeta),
        jy=-q.lam * (1.0 - q.zeta),
        jz=0.0,
        ha=-1.0,
        hb=-1.0,
    )


def from_xxz_field(q: XXZFieldParams) -> HeisenbergParams:
    """Map (J, Delta, h) onto raw couplings: jx = jy = 2J, jz = 2J Delta,
    ha = hb = -h/2.  Delta = 1 is the isotropic XXX model."""
    return HeisenbergParams(
        jx=2.0 * q.exchange_j,
        jy=2.0 * q.exchange_j,
        jz=2.0 * q.exchange_j * q.delta,
        ha=-0.5 * q.field_h,
        hb=-0.5 * q.field_h,
    )


class BlockLevel(NamedTuple):
    sector: str  # "phi" (spans |00>,|11>) or "psi" (spans |01>,|10>)
    energy: float
    vector: np.ndarray  # eigenvector embedded in the full 4-dim basis


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


def block_spectrum(p: HeisenbergParams):
    """Analytic spectrum of the two 2x2 invariant blocks.

    Returns four ``BlockLevel`` entries ordered as (phi+, phi-, psi+, psi-),
    i.e. energies (jz + eta, jz - eta, -jz + chi, -jz - chi).
    """
    d = p.derived()
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


@dataclass(frozen=True)
class ThermalState:
    """Canonical-ensemble state of the two channel qubits at beta = 1/kT."""

    rho: DensityMatrix
    partition_z: float  # partition function of the min-shifted spectrum
    beta: float
    params: HeisenbergParams


def thermal_state(p: HeisenbergParams, kT: float) -> ThermalState:
    """exp(-H/kT) / Z built from the analytic block spectrum.

    The Boltzmann weights are computed against the ground energy, so
    arbitrarily low temperatures (beta up to ~1e3 and beyond) are safe.
    """
    require_temperature(kT)
    beta = 1.0 / kT
    levels = block_spectrum(p)
    energies = np.array([lv.energy for lv in levels])
    # a product that overflows is -inf, whose weight 0 is the right one
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (energies - energies.min()))
    z = float(weights.sum())
    rho = np.zeros((4, 4), dtype=complex)
    for lv, w in zip(levels, weights):
        rho += (w / z) * np.outer(lv.vector, lv.vector)
    return ThermalState(rho=DensityMatrix(rho), partition_z=z, beta=beta, params=p)


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


# the keyword arguments of critical_point each crossing reads
CRITICAL_PARAMS = {"xy": (), "xxx_field": ("field_h",), "xxz_field": ("exchange_j", "field_h")}


def critical_keys(model: str, keys) -> tuple:
    """(needed, unread): every parameter the crossing of ``model`` reads
    if ``keys`` lacks any of them (else none), and the keys it does not
    read."""
    if model not in CRITICAL_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    reads = CRITICAL_PARAMS[model]
    needed = list(reads) if any(k not in keys for k in reads) else []
    return needed, [k for k in keys if k not in reads]


def critical_point(
    model: str,
    *,
    field_h: float | None = None,
    exchange_j: float | None = None,
) -> float:
    """Locate the ground-level crossing of the channel Hamiltonian.

    model = "xy"        -> the literature value 1.0 (in lam).
    model = "xxx_field" -> the J at which the phi and psi sector ground
                           energies cross, for the given field_h.
    model = "xxz_field" -> the Delta at which they cross, for the given
                           exchange_j and field_h.

    A parameter the crossing needs and lacks, or one it does not read
    (``CRITICAL_PARAMS``), is a ValueError.  Crossings are located by
    bisection on the sign of the ground-level gap to 1e-10.
    """
    given = [k for k, v in (("field_h", field_h), ("exchange_j", exchange_j)) if v is not None]
    reject_keys(model, *critical_keys(model, given))
    if model == "xy":
        return 1.0
    if model == "xxx_field":
        return _bisect(lambda j: _ground_gap_xxz(j, 1.0, field_h), 1e-6, 10.0)
    return _bisect(lambda d: _ground_gap_xxz(exchange_j, d, field_h), -5.0, 5.0)
