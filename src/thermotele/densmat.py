"""Dense complex linear algebra for one-, two-, and three-qubit operators.

Every operator in this package lives on one, two, or three qubits, so
matrices are plain numpy arrays of shape (2, 2), (4, 4), or (8, 8).
This module provides the validated value types ``DensityMatrix`` and
``PureQubit``, the validation of channel stacks, and partial traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (2, 4, 8)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # eigenvalues of a valid density matrix may dip this far below 0


def cmatrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a complex square matrix of dimension 2, 4, or 8."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in SUPPORTED_DIMS:
        raise ValueError("unsupported dimension")
    return m


def _as_array(m) -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


def _raise_first(bad: np.ndarray, template: str, values: np.ndarray) -> None:
    """Raise ``ValueError(template.format(value))`` for the first True
    entry of ``bad``, naming its index when ``bad`` covers a stack."""
    if bad.any():
        k = int(bad.argmax())
        where = f"channel {k}: " if bad.ndim else ""
        raise ValueError(where + template.format(values.flat[k].item()))


def _check_states(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``m``, one matrix (d, d) or a stack
    (N, d, d), is Hermitian, unit-trace and positive semidefinite within
    the module tolerances.  Each check runs on the whole stack, in that
    order, and names the first matrix that fails it.

    The Hermitian part is formed from the real and imaginary parts, so no
    conjugate copy of the stack is made.
    """
    re, im = m.real, m.imag
    re_t, im_t = re.swapaxes(-1, -2), im.swapaxes(-1, -2)
    defect = np.hypot(re - re_t, im + im_t).max(axis=(-2, -1))
    _raise_first(defect > HERMITICITY_TOL, "density matrix not Hermitian (defect {:.3e})", defect)
    tr = m.trace(axis1=-2, axis2=-1)
    _raise_first(abs(tr - 1.0) > TRACE_TOL, "density matrix trace {} differs from 1", tr)
    hermitian = np.empty_like(m)
    np.add(re, re_t, out=hermitian.real)
    np.subtract(im, im_t, out=hermitian.imag)
    hermitian *= 0.5
    lo = np.linalg.eigvalsh(hermitian).min(axis=-1)
    _raise_first(lo < -PSD_TOL, "density matrix has negative eigenvalue {:.3e}", lo)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Validation runs on construction, so any ``DensityMatrix`` handed around
    the package is guaranteed to satisfy the three state invariants within
    the module tolerances.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = cmatrix(self.mat)
        object.__setattr__(self, "mat", m)
        _check_states(m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, ket) -> "DensityMatrix":
        """Build |psi><psi| from a normalized state vector."""
        v = np.asarray(ket, dtype=complex).ravel()
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim not in SUPPORTED_DIMS:
            raise ValueError("unsupported dimension")
        return cls(np.eye(dim, dtype=complex) / dim)


def channel_matrix(channel) -> np.ndarray:
    """The 4x4 matrix of a two-qubit channel state, or the (N, 4, 4) stack
    of N such matrices.

    A ``DensityMatrix`` passes through as it is; any other input is
    validated first, so a non-Hermitian, non-unit-trace or non-PSD array
    raises ``ValueError``, which for a stack names the first bad channel.
    """
    if isinstance(channel, DensityMatrix):
        m = channel.mat
    else:
        m = np.asarray(channel, dtype=complex)
        if m.ndim != 3:
            m = DensityMatrix(m).mat
    if m.shape[-2:] != (4, 4):
        raise ValueError("channel must be a 4x4 density matrix")
    if m.ndim == 3:
        _check_states(m)
    return m


@dataclass(frozen=True)
class PureQubit:
    """Pure input qubit sqrt(a2)|0> + sqrt(1-a2) e^{i gamma}|1>.

    The pair (``alpha_sq``, ``gamma``) are the two independent coordinates
    of the input-state distribution; the amplitudes are normalized exactly
    by construction.
    """

    alpha_sq: float
    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.alpha_sq <= 1.0):
            raise ValueError(f"alpha_sq must lie in [0, 1], got {self.alpha_sq}")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        object.__setattr__(self, "gamma", float(self.gamma) % (2.0 * math.pi))

    def ket(self) -> np.ndarray:
        a = math.sqrt(self.alpha_sq)
        b = math.sqrt(1.0 - self.alpha_sq) * np.exp(1j * self.gamma)
        return np.array([a, b], dtype=complex)

    def density(self) -> np.ndarray:
        v = self.ket()
        return np.outer(v, v.conj())


def partial_trace_first_two(rho):
    """Trace out the first two qubits of a three-qubit operator.

    Parameters
    ----------
    rho : (8, 8) array or DensityMatrix

    Returns
    -------
    The reduced 2x2 operator on the third qubit.  A ``DensityMatrix``
    input yields a ``DensityMatrix`` output; a bare array yields an array
    (useful for unnormalized post-measurement operators).
    """
    m = _as_array(rho)
    if m.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {m.shape}")
    t = m.reshape(2, 2, 2, 2, 2, 2)
    reduced = np.einsum("abcabd->cd", t)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(reduced)
    return reduced
