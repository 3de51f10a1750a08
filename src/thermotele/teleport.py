"""Single-run teleportation in the density-matrix picture.

Qubit ordering is (input, Alice's channel qubit, Bob's channel qubit) =
(1, 2, 3); the joint measurement acts on qubits 1 and 2.  Alice measures
in the generalized Bell basis

    |B1> = cos(phi)|00> + sin(phi)|11>      |B2> = sin(phi)|00> - cos(phi)|11>
    |B3> = cos(phi)|01> + sin(phi)|10>      |B4> = sin(phi)|01> - cos(phi)|10>

(phi = pi/4 reproduces the standard Bell basis) and Bob corrects with one
of four outcome-indexed sets of Pauli products, one set per Bell-state
label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .densmat import DensityMatrix, PureQubit, channel_matrix, partial_trace_first_two
from .spin_models import IDENTITY2, PAULI_X, PAULI_Z

# an outcome whose probability falls below this is reported as unreachable
# instead of dividing by ~0; sweeps must survive degenerate corners
UNREACHABLE_PROB = 1e-15


class CorrectionLabel(Enum):
    """Which Bell state the correction set is tailored to."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_U_BY_KEY = {
    "i": IDENTITY2,
    "z": PAULI_Z,
    "x": PAULI_X,
    "zx": PAULI_Z @ PAULI_X,
}

# outcome-ordered correction keys (j = 1..4) for each set label
CORRECTION_KEYS = {
    CorrectionLabel.PHI_PLUS: ("i", "z", "x", "zx"),
    CorrectionLabel.PHI_MINUS: ("z", "i", "zx", "x"),
    CorrectionLabel.PSI_PLUS: ("x", "zx", "i", "z"),
    CorrectionLabel.PSI_MINUS: ("zx", "x", "z", "i"),
}


# |B_j(phi)> = cos(phi) * BELL_COS[j] + sin(phi) * BELL_SIN[j] over
# (|00>, |01>, |10>, |11>), rows j = 1..4 as in the module docstring
BELL_COS = np.array([[1, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0, 0], [0, 0, -1, 0]], dtype=float)
BELL_SIN = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)

# the outcome pairs the probabilistic protocol may keep, in the canonical
# order of every candidate list
OUTCOME_PAIRS = ((1, 4), (2, 3))


def pair_index(pair) -> int:
    """The index in ``OUTCOME_PAIRS`` of ``pair``, given in either order;
    any other pair is a ValueError."""
    for k, known in enumerate(OUTCOME_PAIRS):
        if sorted(pair) == sorted(known):
            return k
    raise ValueError(f"outcome pair {tuple(pair)} is not one of {OUTCOME_PAIRS}")


@dataclass(frozen=True)
class GeneralizedBellBasis:
    """The four rank-1 projectors of the measurement basis at angle phi."""

    phi: float
    kets: tuple
    projectors: tuple


def bell_basis(phi: float) -> GeneralizedBellBasis:
    """Build the generalized Bell basis at measurement angle ``phi``.

    ``phi`` is reduced mod pi (the projectors have period pi: shifting phi
    by pi only flips the sign of every ket).
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi = float(phi) % math.pi
    c, s = math.cos(phi), math.sin(phi)
    # cos != 0 and sin >= 0 on [0, pi), so each entry is c, s, -c or +0.0
    kets = tuple((c * BELL_COS + s * BELL_SIN).astype(complex))
    projectors = tuple(np.outer(k, k.conj()) for k in kets)
    return GeneralizedBellBasis(phi=phi, kets=kets, projectors=projectors)


@dataclass(frozen=True)
class CorrectionSet:
    """Bob's outcome-indexed unitaries U_1..U_4 for one Bell-state label."""

    label: CorrectionLabel
    unitaries: tuple


def correction_set(label: CorrectionLabel) -> CorrectionSet:
    keys = CORRECTION_KEYS[CorrectionLabel(label)]
    return CorrectionSet(
        label=CorrectionLabel(label),
        unitaries=tuple(_U_BY_KEY[k] for k in keys),
    )


@dataclass(frozen=True)
class TeleportOutcome:
    """Result of postselecting a single measurement outcome j.

    ``valid`` is False when the outcome probability is below
    ``UNREACHABLE_PROB``; the output state is then undefined and the
    fidelity is reported as 0.
    """

    outcome_j: int
    probability: float
    output_state: DensityMatrix | None
    fidelity: float
    valid: bool = True


def run_outcome(
    input_qubit: PureQubit,
    channel: DensityMatrix,
    basis: GeneralizedBellBasis,
    corrections: CorrectionSet,
    j: int,
) -> TeleportOutcome:
    """One run of the protocol, conditioned on measurement outcome ``j``.

    Builds the three-qubit state rho_in (x) rho_ch, projects qubits 1 and 2
    onto |B_j>, traces them out, applies Bob's correction U_j, and scores
    the result against the input.

    Returns a ``TeleportOutcome`` carrying the outcome probability
    Q_j = Tr[(P_j (x) 1) rho], the normalized corrected output state, and
    the fidelity <psi_in| rho_out |psi_in>.
    """
    if j not in (1, 2, 3, 4):
        raise ValueError(f"outcome j must be in 1..4, got {j}")
    rho = np.kron(input_qubit.density(), channel_matrix(channel))
    proj = np.kron(basis.projectors[j - 1], IDENTITY2)
    projected = proj @ rho @ proj
    prob = float(np.trace(projected).real)
    if prob < UNREACHABLE_PROB:
        return TeleportOutcome(j, max(prob, 0.0), None, 0.0, valid=False)
    reduced = partial_trace_first_two(projected) / prob
    u = corrections.unitaries[j - 1]
    out = u @ reduced @ u.conj().T
    ket = input_qubit.ket()
    fidelity = float(np.real(ket.conj() @ out @ ket))
    return TeleportOutcome(j, prob, DensityMatrix(out), fidelity, valid=True)
