"""The input contract of spincat's library, command line and state files, as tables.

`REFUSED` pairs each public name in `spincat`, and each public callable its
library modules define, that takes a size, a real, an axis, a choice or a j
with adversarial values (bool, a float size, a negative, NaN, +-inf, an int
past the float range or too long to print, an array for a scalar, a wrong
axis, a mismatched j, a j that is not a HalfInteger), and each call expects
one documented exception type, with warnings as errors so that nothing warns
before it refuses.  Valid edge values (numpy scalars, 0-d arrays, an empty
phase array, N = 1, 2j = 0) sit in `ACCEPTED` and must pass.  Sizes, reals
and choices are refused by the three rules in `spincat.errors`, a j by
`halfint._spin`.

`ARGV` holds `spincat`'s refused command lines: each exits with its code and
one error line, prints nothing to stdout and writes no file.  `STATE_FILE`
holds the refused state files: each loader raises `StateFileError` with its
message, and `spincat husimi --in` prints that message and exits 3.  The
completeness tests hold every public name, every loader, every subcommand
and every file argument to a row.
"""
import argparse
import importlib
import json
import math
import os

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
    StateFileError,
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
from spincat import cli
from spincat.statefile import SPIN_SCHEMA, TWO_MODE_SCHEMA, load_spin_state, load_state, load_two_mode_state, save_state
from spincat.verify import run_suite

pytestmark = pytest.mark.filterwarnings("error")

J0, J1, J3, J4 = (HalfInteger(tj) for tj in (0, 1, 3, 4))
STATE = coherent_expansion(J4, 0.3 + 0.4j)
OTHER_J = coherent_expansion(J3, 0.3 + 0.4j)
NAN, INF = math.nan, math.inf

# Public names that take no size, real, axis, choice or j of their own: a
# state or a direction alone, each checked where it is built, or a record of
# values the library computed.
NO_SUCH_INPUT = {
    "mean_spin", "spin_to_fock", "fock_to_spin", "off_support_mass", "quantum_fisher_information",  # a state
    "stereographic",  # a BlochDirection
    "all_passed",  # verify's CheckResults
    "CatDecomposition", "CatScanRow", "ScalingRow", "CheckResult",  # records
}

# The library modules whose public callables the tables cover; `cli` is held
# to its exit codes by the `ARGV` table instead.
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
    ("SpinState", "mismatched j", lambda: SpinState(J3, STATE.amplitudes), ValueError, "expected shape"),
    ("SpinState", "NaN amplitude", lambda: SpinState(J0, [NAN]), ValueError, None),
    ("SpinOperator", "mismatched j", lambda: SpinOperator(J3, jz(J4).matrix), ValueError, None),
    ("SpinOperator", "inf entry", lambda: SpinOperator(J0, [[INF]]), ValueError, None),
    ("rotate", "bool angle", lambda: rotate(STATE, "x", True), ValueError, "must be real, got True"),
    ("rotate", "complex angle", lambda: rotate(STATE, "x", 1j), ValueError, None),
    ("rotate", "NaN angle", lambda: rotate(STATE, "y", NAN), ValueError, "is not finite"),
    ("rotate", "inf angle", lambda: rotate(STATE, "x", INF), ValueError, "is not finite"),
    ("rotate", "-inf angle", lambda: rotate(STATE, "y", -INF), ValueError, "is not finite"),
    ("rotate", "NaN angle about x", lambda: rotate(STATE, "x", NAN), ValueError, "is not finite"),
    ("rotate", "inf angle about y", lambda: rotate(STATE, "y", INF), ValueError, "is not finite"),
    ("rotate", "-inf angle about x", lambda: rotate(STATE, "x", -INF), ValueError, "is not finite"),
    ("rotate", "int angle past the float range", lambda: rotate(STATE, "x", 10**400), ValueError, "is not finite"),
    ("rotate", "angle array", lambda: rotate(STATE, "x", np.array([1.0, 2.0])), ValueError, "must be real"),
    ("rotate", "wrong axis", lambda: rotate(STATE, "z", 0.3), ValueError, "axis must be 'x' or 'y'"),
    ("expm_hermitian", "bool t", lambda: expm_hermitian(jz(J4), True), ValueError, None),
    ("expm_hermitian", "NaN t", lambda: expm_hermitian(jz(J4), NAN), ValueError, None),
    ("expm_hermitian", "inf t", lambda: expm_hermitian(jz(J4), INF), ValueError, None),
    ("rotate_label", "bool angle", lambda: rotate_label(1j, "x", True), ValueError, "must be real, got True"),
    ("rotate_label", "NaN angle", lambda: rotate_label(1j, "x", NAN), ValueError, "is not finite"),
    ("rotate_label", "-inf angle", lambda: rotate_label(1j, "y", -INF), ValueError, "is not finite"),
    ("rotate_label", "inf angle about x", lambda: rotate_label(1j, "x", INF), ValueError, "is not finite"),
    ("rotate_label", "inf angle about y", lambda: rotate_label(1j, "y", INF), ValueError, "is not finite"),
    ("rotate_label", "-inf angle about x", lambda: rotate_label(1j, "x", -INF), ValueError, "is not finite"),
    ("rotate_label", "NaN angle about y", lambda: rotate_label(1j, "y", NAN), ValueError, "is not finite"),
    ("rotate_label", "int angle past the float range", lambda: rotate_label(1j, "x", 10**400), ValueError, "is not finite"),
    ("rotate_label", "angle array", lambda: rotate_label(1j, "x", np.array([1.0, 2.0])), ValueError, "must be real"),
    ("rotate_label", "wrong axis", lambda: rotate_label(1j, "z", 0.3), ValueError, "axis must be 'x' or 'y'"),
    ("BlochDirection", "bool theta", lambda: BlochDirection(True, 0.0), ValueError, None),
    ("BlochDirection", "NaN theta", lambda: BlochDirection(NAN, 0.0), ValueError, None),
    ("BlochDirection", "theta past pi", lambda: BlochDirection(4.0, 0.0), ValueError, None),
    ("BlochDirection", "negative theta", lambda: BlochDirection(-0.1, 0.0), ValueError, "outside"),
    ("BlochDirection", "bool phi", lambda: BlochDirection(1.0, True), ValueError, None),
    ("BlochDirection", "NaN phi", lambda: BlochDirection(1.0, NAN), ValueError, "phi nan is not finite"),
    ("BlochDirection", "inf phi", lambda: BlochDirection(1.0, INF), ValueError, "phi inf is not finite"),
    ("BlochDirection", "int phi past the float range", lambda: BlochDirection(1.0, 10**400), ValueError, "phi .*is not finite"),
    ("BlochDirection", "theta array", lambda: BlochDirection(np.array([1.0, 2.0]), 0.0), ValueError, "theta must be real"),
    ("SpinorLabel", "NaN modulus", lambda: SpinorLabel(NAN, 1.0, 1, 1), ValueError, None),
    ("SpinorLabel", "negative modulus", lambda: SpinorLabel(-1.0, 0.0, 1, 0), ValueError, None),
    ("SpinorLabel", "moduli of no unit spinor", lambda: SpinorLabel(0.6, 0.6, 1.0, 1.0), ValueError, "not the moduli of a unit spinor"),
    ("SpinorLabel", "a u direction where |u| = 0", lambda: SpinorLabel(0.0, 1.0, 1.0, 1.0), ValueError, "vanish exactly where"),
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
    ("TwoModeState", "mismatched length", lambda: TwoModeState(2, [1, 0]), ValueError, "expected shape"),
    ("make_noon", "bool N", lambda: make_noon(True), InvalidN, None),
    ("make_noon", "float N", lambda: make_noon(4.0), InvalidN, None),
    ("make_noon", "negative N", lambda: make_noon(-3), InvalidN, None),
    ("make_noon", "N = 0", lambda: make_noon(0), InvalidN, None),
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
    ("noon_signal", "inf phi", lambda: noon_signal(noon_state(4, 0.0), INF), ValueError, "is not finite"),
    ("noon_signal", "-inf phi", lambda: noon_signal(noon_state(4, 0.0), -INF), ValueError, "is not finite"),
    ("noon_signal", "NaN in a phi array", lambda: noon_signal(noon_state(4, 0.0), np.array([0.0, 1.0, NAN])), ValueError, "is not finite"),
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
    ("save_state", "ndarray", lambda: save_state(np.zeros(3), os.devnull), TypeError, "cannot serialize ndarray"),
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
# omega = +-1e308 is finite, but omega * m * tau/4 overflows at every 2j.
REFUSED += [
    ("quarter_period_evolve", f"omega {omega:+g} at 2j = {tj}", lambda tj=tj, omega=omega: quarter_period_evolve(weight_state(HalfInteger(tj), tj), omega), NonFinitePhase, "overflow")
    for tj in (2, 7, 60)
    for omega in (1e308, -1e308)
]
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

POLE = "error: need a label off the poles so the two components differ"

# (subcommand, case, the arguments after it, exit code, the line stderr ends
# with).  "{dir}" is a directory holding spin.json, a spin state of 2j = 1.
ARGV = [
    ("", "no command", "", 2, "spincat: error: the following arguments are required: command"),
    ("frobnicate", "unknown command", "", 2, "spincat: error: argument command: invalid choice: 'frobnicate' (choose from 'coherent', 'cat', 'noon', 'husimi', 'scan', 'metrology', 'verify')"),
    ("coherent", "no --out", "--twice-j 2 --gamma 1", 2, "spincat coherent: error: the following arguments are required: --out"),
    ("coherent", "negative 2j", "--twice-j -1 --gamma 1 --out {dir}/o.json", 2, "spincat coherent: error: argument --twice-j: value must be an integer >= 0, got -1"),
    ("coherent", "NaN gamma", "--twice-j 2 --gamma nan --out {dir}/o.json", 2, "spincat coherent: error: argument --gamma: complex number 'nan' has a NaN part"),
    # complex("1e400") is infinite, but only an infinity spelled out names the pole.
    ("coherent", "gamma past the float range", "--twice-j 2 --gamma=1e400 --out {dir}/o.json", 2, "spincat coherent: error: argument --gamma: '1e400' is past the float range, so it is not finite"),
    # 2j + 1 floats past any address space, though numpy can describe the
    # array: the binomial table is allocated before its exact loop, so
    # numpy's MemoryError comes at once, not after 10^17 big-int steps.
    ("coherent", "2j past memory", "--twice-j 100000000000000000 --gamma 1 --out {dir}/o.json", 2, "error: out of memory for this size"),
    ("cat", "inf omega", "--twice-j 4 --gamma 0+1i --omega inf --out {dir}/o.json", 2, "spincat cat: error: argument --omega: value inf is not finite"),
    ("cat", "overflowing omega", "--twice-j 2 --gamma 1 --omega 1e308 --out {dir}/o.json", 2, "error: omega=1e+308 makes the quarter-period phase overflow at j=1"),
    ("cat", "gamma 0", "--twice-j 4 --gamma=0 --out {dir}/o.json", 2, POLE),
    ("cat", "gamma inf", "--twice-j 4 --gamma inf --out {dir}/o.json", 2, POLE),
    # A label within rounding of a pole: its two components coincide to rounding.
    ("cat", "gamma within rounding of 0", "--twice-j 4 --gamma=1e-16 --out {dir}/o.json", 2, POLE),
    ("cat", "theta within rounding of 0", "--twice-j 40 --theta 1e-17 --out {dir}/o.json", 2, POLE),
    ("cat", "2j = 0", "--twice-j 0 --gamma 1 --out {dir}/o.json", 2, "error: j = 0 has no twisting dynamics"),
    ("noon", "N = 0", "--n 0 --out {dir}/o.json", 2, "spincat noon: error: argument --n: value must be an integer >= 1, got 0"),
    ("noon", "NaN omega", "--n 4 --omega nan --out {dir}/o.json", 2, "spincat noon: error: argument --omega: value nan is not finite"),
    ("noon", "overflowing omega", "--n 4 --omega 1e308 --out {dir}/o.json", 2, "error: omega=1e+308 makes the quarter-period phase overflow at j=2"),
    ("noon", "N past memory", "--n 100000000000000000 --out {dir}/o.json", 2, "error: out of memory for this size"),
    # Past the longest complex array numpy can describe, numpy raises
    # ValueError rather than MemoryError, and exact binomials never finish;
    # the size is refused before anything runs.
    ("noon", "N past the index range", "--n 100000000000000000000000 --out {dir}/o.json", 2, f"spincat noon: error: argument --n: must be < {cli._MAX_LENGTH}, got 100000000000000000000000"),
    ("husimi", "n_theta past the index range", "--in {dir}/spin.json --n-theta 100000000000000000000 --n-phi 1", 2, f"spincat husimi: error: argument --n-theta: must be < {cli._MAX_LENGTH}, got 100000000000000000000"),
    ("husimi", "n_theta 1", "--in {dir}/spin.json --n-theta 1", 2, "spincat husimi: error: argument --n-theta: value must be an integer >= 2, got 1"),
    ("husimi", "n_phi 0", "--in {dir}/spin.json --n-phi 0", 2, "spincat husimi: error: argument --n-phi: value must be an integer >= 1, got 0"),
    ("scan", "NaN omega", "--twice-j-list 2 --omega nan", 2, "spincat scan: error: argument --omega: value nan is not finite"),
    ("scan", "overflowing omega", "--twice-j-list 2 --omega 1e308", 2, "error: omega=1e+308 makes the quarter-period phase overflow at j=1"),
    ("scan", "negative 2j in the list", "--twice-j-list 2,-1", 2, "spincat scan: error: argument --twice-j-list: value must be an integer >= 0, got -1"),
    ("scan", "gamma 0", "--twice-j-list 2 --gamma=0", 2, POLE),
    ("scan", "gamma inf", "--twice-j-list 2 --gamma inf", 2, POLE),
    ("scan", "gamma within rounding of 0", "--twice-j-list 4,40 --gamma=1e-16 --out {dir}/o.csv", 2, POLE),
    ("scan", "gamma within rounding of 0, to stdout", "--twice-j-list 4,40 --gamma=1e-16", 2, POLE),
    ("scan", "2j = 0", "--twice-j-list 0", 2, "error: j = 0 has no twisting dynamics"),
    ("metrology", "N = 0 in the list", "--n-list 0,2", 2, "spincat metrology: error: argument --n-list: value must be an integer >= 1, got 0"),
    ("metrology", "N past the index range", "--n-list 1000000000000000000", 2, f"spincat metrology: error: argument --n-list: must be < {cli._MAX_LENGTH}, got 1000000000000000000"),
    ("metrology", "N far past the index range", "--n-list 100000000000000000000000", 2, f"spincat metrology: error: argument --n-list: must be < {cli._MAX_LENGTH}, got 100000000000000000000000"),
    ("verify", "negative 2j", "--max-twice-j -5", 2, "spincat verify: error: argument --max-twice-j: value must be an integer >= 0, got -5"),
]
# A label a handler refuses goes through its subcommand's parser, like argparse's own errors.
ARGV += [
    (command, case, f"--twice-j 4 {label} --out {{dir}}/o.json", 2, f"spincat {command}: error: {message}")
    for command in ("coherent", "cat")
    for case, label, message in (
        ("NaN theta", "--theta nan", "theta=nan outside [0, pi]"),
        ("theta 4", "--theta 4", "theta=4.0 outside [0, pi]"),
        ("inf phi", "--theta 1 --phi inf", "phi inf is not finite"),
        ("theta and gamma", "--theta 1 --gamma 0+1i", "give exactly one of --theta [--phi] or --gamma"),
        ("no label", "", "give exactly one of --theta [--phi] or --gamma"),
    )
]
# Every writer lets the OSError reach main, which alone maps it to exit 3.
ARGV += [
    (command, "unwritable --out", f"{args} --out {{dir}}/missing/o.dat", 3, "I/O error: [Errno 2] No such file or directory: '{dir}/missing/o.dat'")
    for command, args in (
        ("coherent", "--twice-j 2 --gamma 1"),
        ("cat", "--twice-j 4 --gamma 0+1i"),
        ("noon", "--n 4"),
        ("husimi", "--in {dir}/spin.json --n-theta 3 --n-phi 2"),
        ("scan", "--twice-j-list 2"),
        ("metrology", "--n-list 1,2"),
    )
]


def _doc(amplitudes, schema=SPIN_SCHEMA, size=1):
    """A state file's text; `size` is its 2j, or its N for a two-mode schema."""
    key = "n_total" if schema == TWO_MODE_SCHEMA else "twice_j"
    return json.dumps({"schema_version": schema, key: size, "amplitudes": amplitudes})


ONE = [[1.0, 0.0], [0.0, 0.0]]

# (loader, case, the file's text or None for no file, the StateFileError
# message).  "{path}" is the file's path.
STATE_FILE = [
    (load_state, "no file", None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    (load_state, "not JSON", "not json at all {", "{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (load_state, "a JSON array", "[]", "top-level JSON value must be an object"),
    (load_state, "an empty object", "{}", "unknown schema_version: None"),
    (load_state, "unknown schema", _doc(ONE, "spin-state/9"), "unknown schema_version: 'spin-state/9'"),
    (load_state, "a pair short", _doc(ONE, size=2), "expected 3 amplitude pairs, got 2"),
    (load_state, "an int past the float range", _doc([[10**400, 0], [0.0, 0.0]]), "malformed amplitude entry: int too large to convert to float"),
    (load_state, "spin norm 5", _doc([[5.0, 0.0], [0.0, 0.0]]), "invalid state: state norm 5.0 is not 1 within 1e-09"),
    (load_state, "two-mode norm 0.99", _doc([[0.7, 0.0], [0.7, 0.0]], TWO_MODE_SCHEMA), "invalid state: state norm 0.9899494936611665 is not 1 within 1e-09"),
    (load_spin_state, "a two-mode state", _doc(ONE, TWO_MODE_SCHEMA), "{path} holds a two-mode-state/1 state, need spin-state/1"),
    (load_two_mode_state, "a spin state", _doc(ONE), "{path} holds a spin-state/1 state, need two-mode-state/1"),
]
# Entries that are not two JSON numbers, though float() may accept their parts.
STATE_FILE += [
    (load_state, f"entry {entry!r}", _doc([entry, [0.0, 0.0]]), f"malformed amplitude entry {entry!r}: need [re, im], two JSON numbers")
    for entry in ([1.0], ["x", 0.0], "10", [True, False], ["1", "0"])
]
STATE_FILE += [
    (load_state, f"{key} {size!r}", _doc(ONE, schema, size), f"{key} must be an integer >= 0, got {size!r}")
    for schema, key in ((SPIN_SCHEMA, "twice_j"), (TWO_MODE_SCHEMA, "n_total"))
    for size in (True, 2.0, "2", None, -1)
]
# json writes NaN and +-inf as NaN / Infinity / -Infinity and reads them
# back; 1e200 is finite, but its square is not, and no overflow warning escapes.
STATE_FILE += [
    (load_state, f"{schema} {bad} {part}", _doc([[1.0, 0.0], [bad, 0.0] if part == "re" else [0.0, bad]], schema), "invalid state: non-finite entries")
    for schema in (SPIN_SCHEMA, TWO_MODE_SCHEMA)
    for bad in (NAN, INF, -INF)
    for part in ("re", "im")
]
STATE_FILE += [
    (load_state, f"{schema} 1e200", _doc([[0.0, 1e200], [0.0, 0.0]], schema), "invalid state: state norm inf is not 1 within 1e-09")
    for schema in (SPIN_SCHEMA, TWO_MODE_SCHEMA)
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
    covered = {row[0] for row in REFUSED + ACCEPTED} | {row[0].__name__ for row in STATE_FILE}
    assert covered <= public
    assert public - covered == NO_SUCH_INPUT


def test_every_subcommand_has_a_usage_row_and_every_file_argument_an_io_row():
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = subparsers.choices
    assert set(commands) <= {row[0] for row in ARGV if row[3] == 2}
    with_files = {name for name, p in commands.items() if {"--in", "--out"} & set(p._option_string_actions)}
    assert with_files <= {row[0] for row in ARGV if row[3] == 3}


@pytest.mark.parametrize(
    "argv, code, line",
    [pytest.param([*row[0].split(), *row[2].split()], *row[3:], id=f"{row[0] or 'spincat'}-{row[1]}") for row in ARGV],
)
def test_a_refused_argv_exits_with_its_documented_code(tmp_path, capsys, argv, code, line):
    (tmp_path / "spin.json").write_text(_doc(ONE))
    rc = cli.main([arg.format(dir=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    line = line.format(dir=tmp_path)
    assert (rc, out, err.splitlines()[-1]) == (code, "", line)
    assert "Traceback" not in err
    if line.startswith("spincat"):  # argparse's usage, then "spincat <command>: error:"
        assert err.startswith(f"usage: {line.partition(':')[0]} ")
    else:
        assert err == line + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spin.json"]


def _state_file(tmp_path, text):
    path = tmp_path / "state.json"
    if text is not None:
        path.write_text(text)
    return path


@pytest.mark.parametrize("load, text, message", [pytest.param(row[0], *row[2:], id=f"{row[0].__name__}-{row[1]}") for row in STATE_FILE])
def test_a_refused_state_file_raises_state_file_error(tmp_path, load, text, message):
    path = _state_file(tmp_path, text)
    with pytest.raises(StateFileError) as info:
        load(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize(
    "text, message",
    [pytest.param(*row[2:], id=f"{row[0].__name__}-{row[1]}") for row in STATE_FILE if row[0] is not load_two_mode_state],
)
def test_husimi_exits_3_on_a_refused_state_file(tmp_path, capsys, text, message):
    path = _state_file(tmp_path, text)
    rc = cli.main(["husimi", "--in", str(path), "--out", str(tmp_path / "q.csv")])
    assert (rc, *capsys.readouterr()) == (3, "", f"state file error: {message.format(path=path)}\n")
    assert not (tmp_path / "q.csv").exists()
