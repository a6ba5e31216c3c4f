"""Spin-cat simulation toolkit.

Finite-dimensional simulation of spin-j systems: coherent states on the
Bloch sphere, quarter-period Kerr-type twisting into two-component cats,
the two-mode Fock correspondence that turns extremal cats into N00N
states, and the Heisenberg-limited phase estimation they enable.
"""
from .halfint import HalfInteger, WeightLabel, m_values, weights
from .errors import (
    HalfIntegerUnsupported,
    InvalidN,
    IrrepMismatch,
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
    StereoLabel,
    as_label,
    bloch_direction,
    coherent_expansion,
    fidelity,
    husimi_grid,
    mean_spin,
    overlap,
    rotation_operator,
    stereographic,
)
from .dynamics import (
    CatScanRow,
    KerrHamiltonianSpec,
    RotatedIdentityResult,
    cat_scan,
    fit_two_component,
    kerr_hamiltonian,
    predicted_cat,
    quarter_period_evolve,
    rotate_x_quarter,
    rotated_cat_prediction,
    verify_cat_identity,
    verify_rotated_identity,
    x_rotation,
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
    apply_phase_shift,
    noon_signal,
    phase_uncertainty,
    quantum_fisher_information,
    scaling_table,
)

__version__ = "0.1.0"
