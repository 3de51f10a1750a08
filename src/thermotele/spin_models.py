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
    lam_minus and orthonormal real eigenvectors as pairs of floats.
    """
    mean = 0.5 * (a + b)
    r = math.hypot(0.5 * (a - b), c)
    lam_plus, lam_minus = mean + r, mean - r
    if r <= 1e-300:
        return (lam_plus, (1.0, 0.0)), (lam_minus, (0.0, 1.0))
    # two algebraically equivalent constructions; pick the better conditioned.
    # Both are scaled by the power of two nearest 1/r, which changes no bit
    # of the result but keeps their norms from underflowing for tiny blocks
    scale = math.ldexp(1.0, -math.frexp(r)[1])
    u1 = np.array([c * scale, (lam_plus - a) * scale])
    u2 = np.array([(lam_plus - b) * scale, c * scale])
    # each norm as np.linalg.norm takes it for a float vector: BLAS ddot,
    # then sqrt (plain x*x + y*y rounds differently)
    n1, n2 = math.sqrt(u1.dot(u1)), math.sqrt(u2.dot(u2))
    (x, y), n = (u1.tolist(), n1) if n1 >= n2 else (u2.tolist(), n2)
    x, y = x / n, y / n
    return (lam_plus, (x, y)), (lam_minus, (-y, x))


def _blocks(p: HeisenbergParams):
    """The eigenpairs of the phi block on (|00>, |11>) and of the psi block
    on (|01>, |10>), each as ``_sym2_eigenpairs`` returns them."""
    sigma_h, delta_h, delta_j, sigma_j = p.ha + p.hb, p.ha - p.hb, p.jx - p.jy, p.jx + p.jy
    # phi block: [[jz + sigma_h, delta_j], [delta_j, jz - sigma_h]]
    # psi block: [[-jz + delta_h, sigma_j], [sigma_j, -jz - delta_h]]
    return (
        _sym2_eigenpairs(p.jz + sigma_h, p.jz - sigma_h, delta_j),
        _sym2_eigenpairs(-p.jz + delta_h, -p.jz - delta_h, sigma_j),
    )


def block_spectrum(p: HeisenbergParams):
    """Analytic spectrum of the two 2x2 invariant blocks.

    Returns four ``BlockLevel`` entries ordered as (phi+, phi-, psi+, psi-),
    i.e. energies (jz + eta, jz - eta, -jz + chi, -jz - chi).
    """
    levels = []
    for sector, slots, pairs in zip(("phi", "psi"), ((0, 3), (1, 2)), _blocks(p)):
        for e, u in pairs:
            vec = np.zeros(4)
            vec[slots[0]], vec[slots[1]] = u[0], u[1]
            levels.append(BlockLevel(sector, e, vec))
    return tuple(levels)


@dataclass(frozen=True)
class ThermalState:
    """Canonical-ensemble state of the two channel qubits at beta = 1/kT."""

    rho: DensityMatrix
    beta: float


def _block_entries(pairs, w_plus: float, w_minus: float) -> list:
    """The (0, 0), (0, 1) and (1, 1) entries of one block's part of the
    thermal state: its two levels' outer products, weighted by their
    normalized Boltzmann weights and summed onto +0.0."""
    (_, u), (_, v) = pairs
    return [
        (0.0 + w_plus * (u[i] * u[j])) + w_minus * (v[i] * v[j])
        for i, j in ((0, 0), (0, 1), (1, 1))
    ]


def thermal_state(p: HeisenbergParams, kT: float) -> ThermalState:
    """exp(-H/kT) / Z built from the analytic block spectrum.

    The Boltzmann weights are computed against the ground energy, so
    arbitrarily low temperatures (beta up to ~1e3 and beyond) are safe.
    Each block's three distinct entries are written from its two
    eigenpairs, with the bits of summing the four levels' weighted outer
    products: the other block's levels add only +0.0 there.
    """
    require_temperature(kT)
    beta = 1.0 / kT
    phi, psi = _blocks(p)
    energies = np.array([phi[0][0], phi[1][0], psi[0][0], psi[1][0]])
    # a product that overflows is -inf, whose weight 0 is the right one
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (energies - energies.min()))
    phi_plus, phi_minus, psi_plus, psi_minus = (weights / float(weights.sum())).tolist()
    a, b, c = _block_entries(phi, phi_plus, phi_minus)
    d, e, f = _block_entries(psi, psi_plus, psi_minus)
    rho = np.array(
        [[a, 0.0, 0.0, b], [0.0, d, e, 0.0], [0.0, e, f, 0.0], [b, 0.0, 0.0, c]], dtype=complex
    )
    return ThermalState(rho=DensityMatrix(rho), beta=beta)


# the keyword arguments of critical_point each crossing reads
CRITICAL_PARAMS = {
    "xy": ("zeta",), "xxx_field": ("field_h",), "xxz_field": ("exchange_j", "field_h")
}


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
    zeta: float | None = None,
) -> float:
    """The ground-level crossing of the channel Hamiltonian, in closed form.

    ``block_spectrum``'s phi-sector ground level jz - eta minus its
    psi-sector one -jz - chi is 4 J Delta + 4|J| - |h| under the XXZ
    mapping (jz = 2 J Delta, eta = |h|, chi = 4|J|).  This gap is linear,
    with the root J_c = |h| / 8 for "xxx_field" (Delta = 1; the gap is -|h|
    for J <= 0) and Delta_c = (|h| - 4|J|) / (4 J) for "xxz_field".  Under
    the xy mapping (jz = 0, eta = 2 sqrt(1 + lam^2 zeta^2), chi = 2 lam) the
    gap 2 lam - eta has the root lam_c = 1 / sqrt(1 - zeta^2) for "xy".  The
    infinite xy chain's literature value lam = 1 is the two-qubit crossing
    only at zeta = 0.

    A missing or unread parameter (``CRITICAL_PARAMS``), a value that is
    not finite, h = 0 for xxx_field, J = 0 for xxz_field and |zeta| >= 1
    for xy (no crossing), a Delta_c that overflows and a crossing whose
    model cannot be built (``HeisenbergParams``' coupling bound) are each a
    ValueError.
    """
    given = dict(exchange_j=exchange_j, field_h=field_h, zeta=zeta)
    given = {k: v for k, v in given.items() if v is not None}
    reject_keys(model, *critical_keys(model, given))
    _require_finite(**given)
    if model == "xy":
        # 1 - zeta^2 as a product, without cancellation near |zeta| = 1
        if not (1.0 - zeta) * (1.0 + zeta) > 0.0:
            raise ValueError("no level crossing found: the xy channel has none at |zeta| >= 1")
        lam = 1.0 / math.sqrt((1.0 - zeta) * (1.0 + zeta))
        from_xy_field(XYFieldParams(lam, zeta))
        return lam
    if model == "xxx_field":
        if field_h == 0.0:
            raise ValueError("no level crossing found")
        exchange_j, delta = abs(field_h) / 8.0, 1.0
    else:
        if exchange_j == 0.0:
            raise ValueError("no level crossing found: at exchange_j = 0 no Delta moves the gap")
        delta = (abs(field_h) - 4.0 * abs(exchange_j)) / (4.0 * exchange_j) + 0.0
        if not math.isfinite(delta):
            raise ValueError(f"the level crossing overflows: Delta_c = {delta}")
    # the model at the crossing must have couplings it can be built from
    from_xxz_field(XXZFieldParams(exchange_j, delta, field_h))
    return exchange_j if model == "xxx_field" else delta
