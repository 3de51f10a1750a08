"""Teleportation through thermal two-qubit Heisenberg channels.

The package simulates the postselected (probabilistic) and deterministic
teleportation protocols when the shared entangled resource is the Gibbs
state of a two-qubit Heisenberg-family Hamiltonian, averages their
fidelities over a uniform input-state distribution by exact quadrature,
evaluates the corresponding closed-form efficiencies (reconciled against
the quadrature oracle), and sweeps model parameters to regenerate the
reference figure datasets.
"""

from ._optimize import OptimizationResult
from ._version import __version__
from .averaging import (
    AveragedQuantities,
    HarmonicAverages,
    QuadratureGrid,
    average_all,
)
from .classical_limit import BlochVector, SeparableChannel, verify_classical_bound
from .closed_form import (
    Branch,
    ClosedFormInputs,
    ConventionMapping,
    ReconciliationReport,
    default_mapping,
    default_reconciliation,
    f_branch,
    g_branch,
    q_rate,
    reconcile_conventions,
    reconciled_det_optimal,
    reconciled_prob_optimal,
)
from .densmat import DensityMatrix, PureQubit, partial_trace_first_two
from .spin_models import (
    DerivedParams,
    HeisenbergParams,
    ThermalState,
    XXZFieldParams,
    XYFieldParams,
    block_spectrum,
    critical_point,
    from_xxz_field,
    from_xy_field,
    thermal_state,
)
from .sweeps import (
    SweepRecord,
    SweepSpec,
    evaluate_point,
    reproduce_figure,
    run_sweep,
    validate,
    write_sweep_csv,
)
from .teleport import (
    CorrectionLabel,
    CorrectionSet,
    GeneralizedBellBasis,
    TeleportOutcome,
    bell_basis,
    correction_set,
    run_outcome,
)

__all__ = [name for name in dir() if not name.startswith("_")]
