"""Versioned JSON serialization for spin and two-mode states.

Amplitudes are stored as [re, im] pairs in the package's canonical orders
(m = -j..+j ascending, or n_a = 0..N ascending).  Floats go through
Python's shortest round-trip repr, so save -> load is bit-exact.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import StateFileError, _size
from .halfint import HalfInteger
from .schwinger import TwoModeState
from .su2 import SpinState

SPIN_SCHEMA = "spin-state/1"
TWO_MODE_SCHEMA = "two-mode-state/1"


def _amplitude_pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in amps]


def save_state(state, path, metadata: dict | None = None):
    """Write a SpinState or TwoModeState as schema-versioned JSON."""
    if isinstance(state, SpinState):
        doc = {"schema_version": SPIN_SCHEMA, "twice_j": state.j.twice_value}
    elif isinstance(state, TwoModeState):
        doc = {"schema_version": TWO_MODE_SCHEMA, "n_total": state.n_total}
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    doc["amplitudes"] = _amplitude_pairs(state.amplitudes)
    doc["metadata"] = {str(k): str(v) for k, v in (metadata or {}).items()}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _parse_amplitudes(doc, expected_len: int) -> np.ndarray:
    pairs = doc.get("amplitudes")
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise StateFileError(
            f"expected {expected_len} amplitude pairs, got "
            f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    for pair in pairs:
        # type(), not isinstance(): JSON true is a bool, and bool subclasses int.
        if type(pair) is not list or len(pair) != 2 or not {type(pair[0]), type(pair[1])} <= {int, float}:
            raise StateFileError(f"malformed amplitude entry {pair!r}: need [re, im], two JSON numbers")
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except OverflowError as exc:  # a JSON integer past the float range
        raise StateFileError(f"malformed amplitude entry: {exc}") from exc


def load_state(path):
    """Read a state file; returns a SpinState or TwoModeState.

    The amplitudes must pass the state constructor's own finite and
    unit-norm checks; a file that fails them raises StateFileError.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("top-level JSON value must be an object")

    schema = doc.get("schema_version")
    if schema not in (SPIN_SCHEMA, TWO_MODE_SCHEMA):
        raise StateFileError(f"unknown schema_version: {schema!r}")
    key = "twice_j" if schema == SPIN_SCHEMA else "n_total"
    size = _size(doc.get(key), 0, StateFileError, key)
    amps = _parse_amplitudes(doc, size + 1)
    try:
        # An entry past ~1e154 overflows the squared norm, which refuses it;
        # numpy's overflow warning would only add noise to that error.
        with np.errstate(over="ignore"):
            return SpinState(HalfInteger(size), amps) if schema == SPIN_SCHEMA else TwoModeState(size, amps)
    except ValueError as exc:
        raise StateFileError(f"invalid state: {exc}") from exc


def load_spin_state(path) -> SpinState:
    state = load_state(path)
    if not isinstance(state, SpinState):
        raise StateFileError(f"{path} holds a {TWO_MODE_SCHEMA} state, need {SPIN_SCHEMA}")
    return state


def load_two_mode_state(path) -> TwoModeState:
    state = load_state(path)
    if not isinstance(state, TwoModeState):
        raise StateFileError(f"{path} holds a {SPIN_SCHEMA} state, need {TWO_MODE_SCHEMA}")
    return state
