import json
import math

import numpy as np
import pytest

from spincat import HalfInteger, SpinState, StateFileError, TwoModeState, coherent_expansion
from spincat.statefile import (
    SPIN_SCHEMA,
    TWO_MODE_SCHEMA,
    load_spin_state,
    load_state,
    load_two_mode_state,
    save_state,
)


def test_spin_round_trip_bit_exact(tmp_path):
    state = coherent_expansion(HalfInteger(13), 0.8 - 1.7j)
    path = tmp_path / "s.json"
    save_state(state, path, {"note": "round trip"})
    loaded = load_spin_state(path)
    assert loaded.j == state.j
    assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_two_mode_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    state = TwoModeState(7, vec)
    path = tmp_path / "t.json"
    save_state(state, path)
    loaded = load_two_mode_state(path)
    assert loaded.n_total == 7
    assert loaded.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_schema_and_metadata_fields(tmp_path):
    path = tmp_path / "s.json"
    save_state(coherent_expansion(HalfInteger(2), 1j), path, {"who": "test"})
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SPIN_SCHEMA
    assert doc["twice_j"] == 2
    assert doc["metadata"] == {"who": "test"}
    assert len(doc["amplitudes"]) == 3
    assert all(len(pair) == 2 for pair in doc["amplitudes"])


def test_wrong_kind_loaders(tmp_path):
    spin_path = tmp_path / "spin.json"
    save_state(coherent_expansion(HalfInteger(2), 1j), spin_path)
    two_path = tmp_path / "two.json"
    save_state(TwoModeState(1, [1.0, 0.0]), two_path)
    with pytest.raises(StateFileError):
        load_two_mode_state(spin_path)
    with pytest.raises(StateFileError):
        load_spin_state(two_path)


def test_missing_file():
    with pytest.raises(StateFileError):
        load_state("/nonexistent/state.json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema_version="spin-state/9"),
        lambda d: d.update(twice_j="two"),
        lambda d: d.update(amplitudes=d["amplitudes"][:-1]),
        lambda d: d["amplitudes"].__setitem__(0, [1.0]),
        lambda d: d["amplitudes"].__setitem__(0, ["x", 0.0]),
        lambda d: d.update(amplitudes=[[5.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        lambda d: d.update(twice_j=True, amplitudes=[[1.0, 0.0], [0.0, 0.0]]),
        lambda d: d.update(schema_version=TWO_MODE_SCHEMA, n_total=True, amplitudes=[[1.0, 0.0], [0.0, 0.0]]),
    ],
)
def test_malformed_documents(tmp_path, mutate):
    path = tmp_path / "s.json"
    save_state(coherent_expansion(HalfInteger(2), 1j), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        load_state(path)


def test_not_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("not json at all {")
    with pytest.raises(StateFileError):
        load_state(path)


def test_norm_gate_on_load(tmp_path):
    path = tmp_path / "s.json"
    bad = {
        "schema_version": TWO_MODE_SCHEMA,
        "n_total": 1,
        "amplitudes": [[0.7, 0.0], [0.7, 0.0]],  # norm 0.99, outside 1e-9
        "metadata": {},
    }
    path.write_text(json.dumps(bad))
    with pytest.raises(StateFileError):
        load_state(path)


def test_save_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        save_state(np.zeros(3), tmp_path / "x.json")


def test_double_round_trip_stable(tmp_path):
    # save -> load -> save again: identical file contents
    state = SpinState(HalfInteger(5), np.exp(1j * np.arange(6)) / math.sqrt(6))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(state, p1)
    save_state(load_spin_state(p1), p2)
    assert p1.read_text() == p2.read_text()
