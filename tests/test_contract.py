"""The input contract of the public API, as one table.

Each public name in `spincat`, and each public callable its library
modules define, that takes a size, a real, an axis, a choice or a j is
called with adversarial values (bool, a float size, a negative, NaN, +-inf,
an int past the float range or too long to print, an array for a scalar, a
wrong axis, a mismatched j, a j that is not a HalfInteger), and each call
expects one documented exception type, with warnings as errors so that
nothing warns before it refuses.  Valid edge values (numpy scalars, 0-d
arrays, an empty phase array, N = 1, 2j = 0) sit in the same table and must
pass.  Sizes, reals and choices are refused by the three rules in
`spincat.errors`, a j by `halfint._spin`; the table holds the public names
to them, and `test_every_public_name_has_a_row_or_is_listed` holds every
public name to the table.
"""
import importlib
import math

import numpy as np
import pytest

import spincat
from _oracles import SpinOperator, casimir, expm_hermitian, jminus, jplus, jx, jy, jz, kerr_hamiltonian
from spincat import (
    BlochDirection,
    HalfInteger,
    HalfIntegerUnsupported,
    InvalidN,
    IrrepMismatch,
    NonFinitePhase,
    PoleLabel,
    SpinorLabel,
    SpinState,
    TwoModeState,
    ZeroSpin,
    as_label,
    bloch_direction,
    cat_scan,
    coherent_expansion,
    error_propagation_uncertainty,
    fidelity,
    fit_two_component,
    husimi_grid,
    m_values,
    make_noon,
    noon_fidelity,
    noon_signal,
    noon_state,
    overlap,
    predicted_cat,
    quarter_period_evolve,
    rotate,
    rotate_label,
    rotated_cat_prediction,
    scaling_table,
    verify_schwinger_realization,
    weight_state,
)
from spincat.verify import run_suite

pytestmark = pytest.mark.filterwarnings("error")

J0, J1, J3, J4 = (HalfInteger(tj) for tj in (0, 1, 3, 4))
STATE = coherent_expansion(J4, 0.3 + 0.4j)
OTHER_J = coherent_expansion(J3, 0.3 + 0.4j)
NAN, INF = math.nan, math.inf

# Public names that take no size, real, axis, choice or j of their own: a
# state or a direction alone, each checked where it is built, a record of
# values the library computed, or a file path, whose refusals
# `tests/test_statefile.py` holds.
NO_SUCH_INPUT = {
    "mean_spin", "spin_to_fock", "fock_to_spin", "off_support_mass", "quantum_fisher_information",  # a state
    "stereographic",  # a BlochDirection
    "all_passed",  # verify's CheckResults
    "CatDecomposition", "CatScanRow", "ScalingRow", "CheckResult",  # records
    "save_state", "load_state", "load_spin_state", "load_two_mode_state",  # a path
}

# The library modules whose public callables the table covers; `cli` is held
# to its exit codes by `tests/test_cli.py`'s argv fuzz test instead.
LIBRARY_MODULES = [
    importlib.import_module(f"spincat.{name}")
    for name in ("halfint", "su2", "coherent", "dynamics", "schwinger", "metrology", "statefile", "verify")
]

# (public name, case, call, the exception it documents, a pattern of its message or None)
REFUSED = [
    ("HalfInteger", "bool", lambda: HalfInteger(True), TypeError, None),
    ("HalfInteger", "float size", lambda: HalfInteger(4.0), TypeError, None),
    ("HalfInteger", "negative", lambda: HalfInteger(-2), ValueError, None),
    ("weight_state", "float 2m", lambda: weight_state(J4, 2.0), ValueError, "2m must be an integer"),
    ("weight_state", "bool 2m", lambda: weight_state(J1, True), ValueError, "2m must be an integer"),
    ("weight_state", "2m below -2j", lambda: weight_state(J4, -6), ValueError, None),
    ("weight_state", "2m above 2j", lambda: weight_state(J4, 6), ValueError, None),
    ("weight_state", "2m of the wrong parity", lambda: weight_state(J4, 1), ValueError, None),
    ("SpinState", "mismatched j", lambda: SpinState(J3, STATE.amplitudes), ValueError, None),
    ("SpinState", "NaN amplitude", lambda: SpinState(J0, [NAN]), ValueError, None),
    ("SpinOperator", "mismatched j", lambda: SpinOperator(J3, jz(J4).matrix), ValueError, None),
    ("SpinOperator", "inf entry", lambda: SpinOperator(J0, [[INF]]), ValueError, None),
    ("rotate", "bool angle", lambda: rotate(STATE, "x", True), ValueError, "must be real, got True"),
    ("rotate", "complex angle", lambda: rotate(STATE, "x", 1j), ValueError, None),
    ("rotate", "NaN angle", lambda: rotate(STATE, "y", NAN), ValueError, "is not finite"),
    ("rotate", "inf angle", lambda: rotate(STATE, "x", INF), ValueError, "is not finite"),
    ("rotate", "-inf angle", lambda: rotate(STATE, "y", -INF), ValueError, "is not finite"),
    ("rotate", "int angle past the float range", lambda: rotate(STATE, "x", 10**400), ValueError, "is not finite"),
    ("rotate", "angle array", lambda: rotate(STATE, "x", np.array([1.0, 2.0])), ValueError, "must be real"),
    ("rotate", "wrong axis", lambda: rotate(STATE, "z", 0.3), ValueError, "axis must be 'x' or 'y'"),
    ("expm_hermitian", "bool t", lambda: expm_hermitian(jz(J4), True), ValueError, None),
    ("expm_hermitian", "NaN t", lambda: expm_hermitian(jz(J4), NAN), ValueError, None),
    ("expm_hermitian", "inf t", lambda: expm_hermitian(jz(J4), INF), ValueError, None),
    ("rotate_label", "bool angle", lambda: rotate_label(1j, "x", True), ValueError, "must be real, got True"),
    ("rotate_label", "NaN angle", lambda: rotate_label(1j, "x", NAN), ValueError, "is not finite"),
    ("rotate_label", "-inf angle", lambda: rotate_label(1j, "y", -INF), ValueError, "is not finite"),
    ("rotate_label", "int angle past the float range", lambda: rotate_label(1j, "x", 10**400), ValueError, "is not finite"),
    ("rotate_label", "angle array", lambda: rotate_label(1j, "x", np.array([1.0, 2.0])), ValueError, "must be real"),
    ("rotate_label", "wrong axis", lambda: rotate_label(1j, "z", 0.3), ValueError, "axis must be 'x' or 'y'"),
    ("BlochDirection", "bool theta", lambda: BlochDirection(True, 0.0), ValueError, None),
    ("BlochDirection", "NaN theta", lambda: BlochDirection(NAN, 0.0), ValueError, None),
    ("BlochDirection", "theta past pi", lambda: BlochDirection(4.0, 0.0), ValueError, None),
    ("BlochDirection", "bool phi", lambda: BlochDirection(1.0, True), ValueError, None),
    ("BlochDirection", "NaN phi", lambda: BlochDirection(1.0, NAN), ValueError, "phi nan is not finite"),
    ("BlochDirection", "inf phi", lambda: BlochDirection(1.0, INF), ValueError, "phi inf is not finite"),
    ("BlochDirection", "int phi past the float range", lambda: BlochDirection(1.0, 10**400), ValueError, "phi .*is not finite"),
    ("BlochDirection", "theta array", lambda: BlochDirection(np.array([1.0, 2.0]), 0.0), ValueError, "theta must be real"),
    ("SpinorLabel", "NaN modulus", lambda: SpinorLabel(NAN, 1.0, 1, 1), ValueError, None),
    ("SpinorLabel", "negative modulus", lambda: SpinorLabel(-1.0, 0.0, 1, 0), ValueError, None),
    ("SpinorLabel", "inf direction", lambda: SpinorLabel(1.0, 0.0, INF, 0), ValueError, None),
    ("SpinorLabel", "bools", lambda: SpinorLabel(True, False, 1, 0), ValueError, "not bools"),
    ("as_label", "NaN gamma", lambda: as_label(complex(NAN, 0.0)), ValueError, None),
    ("as_label", "bool gamma", lambda: as_label(True), ValueError, "gamma must be a number"),
    ("as_label", "numpy bool gamma", lambda: as_label(np.True_), ValueError, "gamma must be a number"),
    ("as_label", "0-d bool array gamma", lambda: as_label(np.array(True)), ValueError, "gamma must be a number"),
    ("as_label", "int gamma past the float range", lambda: as_label(10**400), ValueError, "gamma is past the float range"),
    ("SpinorLabel", "modulus of 5001 digits", lambda: SpinorLabel(10**5000, 0.0, 1, 0), ValueError, "past the float range"),
    ("SpinorLabel", "direction past the float range", lambda: SpinorLabel(1.0, 0.0, 10**400, 0), ValueError, "past the float range"),
    ("rotate_label", "int gamma past the float range", lambda: rotate_label(10**400, "x", 0.3), ValueError, "gamma is past the float range"),
    ("bloch_direction", "NaN gamma", lambda: bloch_direction(complex(INF, NAN)), ValueError, None),
    ("coherent_expansion", "NaN gamma", lambda: coherent_expansion(J4, complex(0.0, NAN)), ValueError, None),
    # 2j + 1 entries past numpy's index range, then past any address space:
    # refused at once, before the exact binomial loop.
    ("coherent_expansion", "2j past the index range", lambda: coherent_expansion(HalfInteger(10**30), 1j), ValueError, "dimension"),
    ("coherent_expansion", "2j past memory", lambda: coherent_expansion(HalfInteger(10**17), 1j), MemoryError, None),
    ("make_noon", "N past the index range", lambda: make_noon(10**30), ValueError, "dimension"),
    ("overlap", "mismatched j", lambda: overlap(STATE, OTHER_J), IrrepMismatch, None),
    ("fidelity", "mismatched j", lambda: fidelity(STATE, OTHER_J), IrrepMismatch, None),
    ("husimi_grid", "bool n_phi", lambda: husimi_grid(STATE, 3, True), ValueError, "n_phi must be an integer"),
    ("husimi_grid", "float n_theta", lambda: husimi_grid(STATE, 2.5, 3), ValueError, "n_theta must be an integer"),
    ("husimi_grid", "n_theta 1", lambda: husimi_grid(STATE, 1, 3), ValueError, None),
    ("husimi_grid", "negative n_phi", lambda: husimi_grid(STATE, 3, -1), ValueError, None),
    ("kerr_hamiltonian", "wrong axis", lambda: kerr_hamiltonian(J4, 0.0, "x"), ValueError, "axis must be 'z' or 'y'"),
    ("kerr_hamiltonian", "bool omega", lambda: kerr_hamiltonian(J4, True), ValueError, None),
    ("kerr_hamiltonian", "NaN omega", lambda: kerr_hamiltonian(J4, NAN), ValueError, None),
    ("kerr_hamiltonian", "inf omega", lambda: kerr_hamiltonian(J4, INF), ValueError, None),
    ("kerr_hamiltonian", "2j = 0", lambda: kerr_hamiltonian(J0), ZeroSpin, None),
    ("quarter_period_evolve", "bool omega", lambda: quarter_period_evolve(STATE, True), NonFinitePhase, None),
    ("quarter_period_evolve", "NaN omega", lambda: quarter_period_evolve(STATE, NAN), NonFinitePhase, "omega nan is not finite"),
    ("quarter_period_evolve", "inf omega", lambda: quarter_period_evolve(STATE, INF), NonFinitePhase, "omega inf is not finite"),
    ("quarter_period_evolve", "-inf omega", lambda: quarter_period_evolve(STATE, -INF), NonFinitePhase, "is not finite"),
    ("quarter_period_evolve", "overflowing omega", lambda: quarter_period_evolve(STATE, 1e308), NonFinitePhase, "overflow"),
    ("quarter_period_evolve", "int omega past the float range", lambda: quarter_period_evolve(STATE, 10**400), NonFinitePhase, "is not finite"),
    ("quarter_period_evolve", "omega array", lambda: quarter_period_evolve(STATE, np.array([0.0, 1.0])), NonFinitePhase, "must be real"),
    ("quarter_period_evolve", "2j = 0", lambda: quarter_period_evolve(coherent_expansion(J0, 1j)), ZeroSpin, None),
    ("cat_scan", "NaN omega", lambda: cat_scan([J4], [NAN]), NonFinitePhase, "omega nan is not finite"),
    ("cat_scan", "pole gamma", lambda: cat_scan([J4], [0.0], gamma=INF), PoleLabel, None),
    ("fit_two_component", "pole gamma", lambda: fit_two_component(STATE, 0.0), PoleLabel, None),
    ("fit_two_component", "NaN gamma", lambda: fit_two_component(STATE, complex(NAN, 1.0)), ValueError, None),
    ("predicted_cat", "half-integer j", lambda: predicted_cat(J3, 1j), HalfIntegerUnsupported, None),
    ("rotated_cat_prediction", "half-integer j", lambda: rotated_cat_prediction(J3), HalfIntegerUnsupported, None),
    ("noon_state", "bool N", lambda: noon_state(True), InvalidN, None),
    ("noon_state", "float N", lambda: noon_state(4.0), InvalidN, None),
    ("noon_state", "N = 0", lambda: noon_state(0), InvalidN, None),
    ("noon_state", "bool phi", lambda: noon_state(4, True), ValueError, "phase_phi must be real"),
    ("noon_state", "NaN phi", lambda: noon_state(4, NAN), ValueError, "phase_phi nan is not finite"),
    ("noon_state", "inf phi", lambda: noon_state(4, INF), ValueError, "phase_phi inf is not finite"),
    ("noon_state", "int phi past the float range", lambda: noon_state(4, 10**400), ValueError, "phase_phi .*is not finite"),
    ("noon_state", "phi array", lambda: noon_state(4, np.array([0.1, 0.2])), ValueError, "phase_phi must be real"),
    ("TwoModeState", "bool N", lambda: TwoModeState(True, [1, 0]), ValueError, None),
    ("TwoModeState", "float N", lambda: TwoModeState(1.0, [1, 0]), ValueError, None),
    ("TwoModeState", "negative N", lambda: TwoModeState(-1, []), ValueError, None),
    ("TwoModeState", "mismatched length", lambda: TwoModeState(2, [1, 0]), ValueError, None),
    ("make_noon", "bool N", lambda: make_noon(True), InvalidN, None),
    ("make_noon", "float N", lambda: make_noon(4.0), InvalidN, None),
    ("make_noon", "negative N", lambda: make_noon(-3), InvalidN, None),
    ("make_noon", "NaN omega", lambda: make_noon(4, omega=NAN), NonFinitePhase, "omega nan is not finite"),
    ("make_noon", "inf omega", lambda: make_noon(4, omega=INF), NonFinitePhase, "omega inf is not finite"),
    ("make_noon", "wrong choice", lambda: make_noon(4, gamma_choice="q"), ValueError, "gamma_choice must be 'i' or '1'"),
    ("make_noon", "int choice", lambda: make_noon(4, gamma_choice=1), ValueError, "gamma_choice must be"),
    ("noon_fidelity", "N = 0", lambda: noon_fidelity(TwoModeState(0, [1.0])), InvalidN, None),
    ("noon_signal", "bool N", lambda: noon_signal(noon_state(True, 0.0), 0.1), InvalidN, None),
    ("noon_signal", "NaN phi0", lambda: noon_signal(noon_state(4, NAN), 0.1), ValueError, None),
    ("noon_signal", "N = 0", lambda: noon_signal(TwoModeState(0, [1.0]), 0.1), InvalidN, None),
    ("noon_signal", "bool phi", lambda: noon_signal(noon_state(4, 0.0), True), ValueError, "must be real, got True"),
    ("noon_signal", "bool phi array", lambda: noon_signal(noon_state(4, 0.0), [True, False]), ValueError, "must be real"),
    ("noon_signal", "complex phi", lambda: noon_signal(noon_state(4, 0.0), 1j), ValueError, "must be real"),
    ("noon_signal", "NaN phi", lambda: noon_signal(noon_state(4, 0.0), NAN), ValueError, "is not finite"),
    ("noon_signal", "inf in a phi array", lambda: noon_signal(noon_state(4, 0.0), np.array([0.0, INF])), ValueError, "is not finite"),
    ("error_propagation_uncertainty", "bool N", lambda: error_propagation_uncertainty(noon_state(True)), InvalidN, None),
    ("error_propagation_uncertainty", "float N", lambda: error_propagation_uncertainty(noon_state(2.0)), InvalidN, None),
    ("error_propagation_uncertainty", "N = 0", lambda: error_propagation_uncertainty(TwoModeState(0, [1.0])), InvalidN, None),
    ("scaling_table", "bool N", lambda: scaling_table([noon_state(True)]), InvalidN, None),
    ("scaling_table", "float N", lambda: scaling_table([noon_state(2.7)]), InvalidN, None),
    ("scaling_table", "negative N", lambda: scaling_table([noon_state(n) for n in [4, -1]]), InvalidN, None),
    ("scaling_table", "N = 0 probe", lambda: scaling_table([noon_state(4), TwoModeState(0, [1.0])]), InvalidN, None),
    ("run_suite", "bool size", lambda: run_suite(True), ValueError, "max_twice_j must be an integer >= 0"),
    ("run_suite", "float size", lambda: run_suite(2.5), ValueError, "max_twice_j must be an integer >= 0"),
    ("run_suite", "negative size", lambda: run_suite(-5), ValueError, "max_twice_j must be an integer >= 0"),
    # An int past 4300 digits has no repr; the refusal describes it instead.
    ("HalfInteger", "2j of 5001 digits", lambda: HalfInteger(-10**5000), ValueError, "got a negative int of 5001 digits"),
    ("weight_state", "2m of 5001 digits", lambda: weight_state(J4, 10**5000), ValueError, "2m=an int of 5001 digits is not a weight"),
    ("husimi_grid", "n_theta of 5001 digits", lambda: husimi_grid(STATE, -10**5000, 3), ValueError, "n_theta .* got a negative int of 5001 digits"),
    ("make_noon", "N of 5001 digits", lambda: make_noon(-10**5000), InvalidN, "got a negative int of 5001 digits"),
]

# Every name that takes a j, called with an int, None and a float for it:
# each is refused with TypeError, as HalfInteger refuses a 2j that is not an int.
TAKES_J = {
    "m_values": m_values,
    "jx": jx,
    "jy": jy,
    "jz": jz,
    "jplus": jplus,
    "jminus": jminus,
    "casimir": casimir,
    "verify_schwinger_realization": verify_schwinger_realization,
    "coherent_expansion": lambda j: coherent_expansion(j, 1j),
    "predicted_cat": lambda j: predicted_cat(j, 1j),
    "rotated_cat_prediction": rotated_cat_prediction,
    "SpinState": lambda j: SpinState(j, [1.0]),
    "SpinOperator": lambda j: SpinOperator(j, [[1.0]]),
    "weight_state": lambda j: weight_state(j, 0),
    "kerr_hamiltonian": kerr_hamiltonian,
    "cat_scan": lambda j: cat_scan([j], [0.0]),
}
REFUSED += [
    (name, f"{case} j", lambda call=call, j=j: call(j), TypeError, "j must be a HalfInteger")
    for name, call in TAKES_J.items()
    for case, j in (("int", 4), ("None", None), ("float", 4.0))
]

# (public name, case, call): valid edge values, which must pass.
ACCEPTED = [
    ("HalfInteger", "numpy int", lambda: HalfInteger(np.int64(4))),
    ("weight_state", "2j = 0", lambda: weight_state(J0, 0)),
    ("weight_state", "numpy int 2m", lambda: weight_state(J4, np.int64(-4))),
    ("rotate", "numpy float angle", lambda: rotate(STATE, "x", np.float64(0.3))),
    ("rotate", "int angle", lambda: rotate(STATE, "y", 1)),
    ("rotate", "0-d array angle", lambda: rotate(STATE, "x", np.array(0.3))),
    ("rotate", "2j = 0", lambda: rotate(coherent_expansion(J0, 1j), "y", 0.3)),
    ("expm_hermitian", "numpy float t", lambda: expm_hermitian(jz(J4), np.float64(0.3))),
    ("rotate_label", "numpy float angle", lambda: rotate_label(INF, "y", np.float64(-math.pi / 2))),
    ("BlochDirection", "the south pole", lambda: BlochDirection(math.pi, -7.0)),
    ("BlochDirection", "numpy floats", lambda: BlochDirection(np.float64(0.3), np.float64(0.3))),
    ("BlochDirection", "0-d arrays", lambda: BlochDirection(np.array(0.3), np.array(0.3))),
    ("SpinorLabel", "the pole", lambda: SpinorLabel(0.0, 1.0, 0j, 1 + 0j)),
    ("as_label", "the pole", lambda: as_label(INF)),
    ("bloch_direction", "gamma 0", lambda: bloch_direction(0)),
    ("coherent_expansion", "2j = 0", lambda: coherent_expansion(J0, 1j)),
    ("overlap", "same j", lambda: overlap(STATE, STATE)),
    ("fidelity", "same j", lambda: fidelity(STATE, STATE)),
    ("husimi_grid", "smallest grid, numpy ints", lambda: husimi_grid(STATE, np.int64(2), np.int64(1))),
    ("husimi_grid", "2j = 0", lambda: husimi_grid(coherent_expansion(J0, 1j), 2, 1)),
    ("kerr_hamiltonian", "numpy float omega", lambda: kerr_hamiltonian(J4, np.float64(0.3), "y")),
    ("quarter_period_evolve", "numpy float omega", lambda: quarter_period_evolve(STATE, np.float64(0.3))),
    ("quarter_period_evolve", "0-d array omega", lambda: quarter_period_evolve(STATE, np.array(0.3))),
    ("cat_scan", "no omegas", lambda: cat_scan([J4], [])),
    ("fit_two_component", "numpy complex gamma", lambda: fit_two_component(STATE, np.complex128(0.3 + 0.4j))),
    ("predicted_cat", "2j = 0", lambda: predicted_cat(J0, 1j)),
    ("rotated_cat_prediction", "2j = 0", lambda: rotated_cat_prediction(J0)),
    ("noon_state", "N = 1", lambda: noon_state(1)),
    ("noon_state", "numpy scalars", lambda: noon_state(np.int64(4), np.float64(0.3))),
    ("noon_state", "0-d array phi", lambda: noon_state(4, np.array(0.3))),
    ("TwoModeState", "N = 0", lambda: TwoModeState(0, [1.0])),
    ("make_noon", "N = 1", lambda: make_noon(1)),
    ("make_noon", "numpy scalars", lambda: make_noon(np.int64(4), omega=np.float64(0.0), gamma_choice="1")),
    ("noon_fidelity", "N = 1", lambda: noon_fidelity(noon_state(1))),
    ("noon_signal", "empty phi array", lambda: noon_signal(noon_state(4, 0.0), np.array([]))),
    ("noon_signal", "numpy scalars", lambda: noon_signal(noon_state(np.int64(4), np.float64(0.3)), np.float64(0.1))),
    ("noon_signal", "int phi list", lambda: noon_signal(noon_state(1, 0), [0, 1])),
    ("noon_signal", "0-d array phi", lambda: noon_signal(noon_state(4), np.array(0.1))),
    ("noon_signal", "the pipeline's state", lambda: noon_signal(make_noon(4), 0.1)),
    ("error_propagation_uncertainty", "N = 1", lambda: error_propagation_uncertainty(noon_state(1))),
    ("scaling_table", "no N", lambda: scaling_table([])),
    ("scaling_table", "numpy int N", lambda: scaling_table([noon_state(n) for n in [np.int64(4), 1]])),
    ("scaling_table", "the pipeline's state", lambda: scaling_table([make_noon(4)])),
    ("run_suite", "2j = 0", lambda: run_suite(0)),
    ("run_suite", "numpy int", lambda: run_suite(np.int64(2))),
]

# A row's test id starts with its public name, except that
# error_propagation_uncertainty's rows go by the quantity it returns, the
# phase uncertainty: their ids stay short and keep the names these cases
# have always had.
ID_NAME = {"error_propagation_uncertainty": "phase_uncertainty"}


def _row_id(row):
    return f"{ID_NAME.get(row[0], row[0])}-{row[1]}"


@pytest.mark.parametrize("call, error, match", [pytest.param(*row[2:], id=_row_id(row)) for row in REFUSED])
def test_an_adversarial_input_raises_its_documented_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [pytest.param(row[2], id=_row_id(row)) for row in ACCEPTED])
def test_a_valid_edge_input_is_accepted(call):
    call()


def test_every_public_name_has_a_row_or_is_listed():
    # Each name `spincat` exports and each public callable a library module
    # defines, whether exported or not.  The exception types are the
    # table's answers, not its inputs.
    named = list(vars(spincat).items())
    named += [(name, obj) for m in LIBRARY_MODULES for name, obj in vars(m).items() if getattr(obj, "__module__", None) == m.__name__]
    public = {
        name
        for name, obj in named
        if not name.startswith("_") and callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    covered = {row[0] for row in REFUSED + ACCEPTED}
    assert covered <= public
    assert public - covered == NO_SUCH_INPUT
