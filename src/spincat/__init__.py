"""Spin-cat simulation toolkit.

Finite-dimensional simulation of spin-j systems: coherent states on the
Bloch sphere, quarter-period Kerr-type twisting into two-component cats,
the two-mode Fock correspondence that turns extremal cats into N00N
states, and the Heisenberg-limited phase estimation they enable.
"""
from .halfint import HalfInteger, m_values
from .errors import (
    HalfIntegerUnsupported,
    InvalidN,
    IrrepMismatch,
    NonFinitePhase,
    PoleLabel,
    SpinCatError,
    StateFileError,
    ZeroSpin,
)
from .su2 import SpinState, rotate, weight_state
from .coherent import (
    BlochDirection,
    CatDecomposition,
    SpinorLabel,
    as_label,
    bloch_direction,
    coherent_expansion,
    fidelity,
    husimi_grid,
    mean_spin,
    overlap,
    rotate_label,
    stereographic,
)
from .dynamics import (
    CatScanRow,
    cat_scan,
    fit_two_component,
    predicted_cat,
    quarter_period_evolve,
    rotated_cat_prediction,
)
from .schwinger import (
    TwoModeState,
    fock_to_spin,
    make_noon,
    noon_fidelity,
    noon_state,
    off_support_mass,
    spin_to_fock,
)
from .metrology import (
    ScalingRow,
    error_propagation_uncertainty,
    noon_signal,
    quantum_fisher_information,
    scaling_table,
)
from .verify import verify_schwinger_realization

__version__ = "0.1.0"
