import json
import math

import numpy as np

from spincat import HalfInteger, SpinState, TwoModeState, coherent_expansion
from spincat.statefile import SPIN_SCHEMA, load_spin_state, load_two_mode_state, save_state


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


def test_double_round_trip_stable(tmp_path):
    # save -> load -> save again: identical file contents
    state = SpinState(HalfInteger(5), np.exp(1j * np.arange(6)) / math.sqrt(6))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(state, p1)
    save_state(load_spin_state(p1), p2)
    assert p1.read_text() == p2.read_text()
