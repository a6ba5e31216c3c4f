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
    NonHermitianInput,
    PoleLabel,
    SpinCatError,
    StateFileError,
    ZeroSpin,
)
from .su2 import (
    SpinOperator,
    SpinState,
    casimir,
    expm_hermitian,
    jminus,
    jplus,
    jx,
    jy,
    jz,
    rotate,
    weight_state,
)
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
    RotatedIdentityResult,
    cat_scan,
    fit_two_component,
    kerr_hamiltonian,
    predicted_cat,
    quarter_period_evolve,
    rotated_cat_prediction,
    verify_cat_identity,
    verify_rotated_identity,
)
from .schwinger import (
    NoonState,
    TwoModeState,
    fock_to_spin,
    make_noon,
    noon_fidelity,
    off_support_mass,
    spin_to_fock,
    verify_schwinger_realization,
)
from .metrology import (
    ScalingRow,
    noon_signal,
    phase_uncertainty,
    quantum_fisher_information,
    scaling_table,
)

__version__ = "0.1.0"
