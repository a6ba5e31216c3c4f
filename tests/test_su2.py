import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import chained_generators, commutator, identity
from spincat import (
    HalfInteger,
    IrrepMismatch,
    NonHermitianInput,
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
from spincat.su2 import _generators

small_twice_j = st.integers(min_value=0, max_value=24)


def test_jz_examples():
    assert np.array_equal(jz(HalfInteger(1)).matrix, np.diag([-0.5, 0.5]).astype(complex))
    assert np.array_equal(jz(HalfInteger(2)).matrix, np.diag([-1.0, 0.0, 1.0]).astype(complex))
    assert np.array_equal(jz(HalfInteger(0)).matrix, np.zeros((1, 1)))


def test_jplus_spin_half_single_entry():
    mat = jplus(HalfInteger(1)).matrix
    assert mat[1, 0] == 1.0
    assert np.count_nonzero(mat) == 1


def test_ladder_elements_match_formula():
    # oracle: direct matrix-element formula, evaluated weight by weight
    j = HalfInteger(7)
    mat = jplus(j).matrix
    for i, m in enumerate(np.arange(-3.5, 3.5)):
        assert mat[i + 1, i] == pytest.approx(math.sqrt(3.5 * 4.5 - m * (m + 1)), abs=1e-15)


def test_highest_weight_annihilated():
    for tj in (1, 2, 5, 12):
        j = HalfInteger(tj)
        top = weight_state(j, tj).amplitudes
        assert np.linalg.norm(jplus(j).matrix @ top) == 0.0


def test_jx_jy_spin_half_matrices():
    assert np.allclose(jx(HalfInteger(1)).matrix, [[0, 0.5], [0.5, 0]])
    assert np.allclose(jy(HalfInteger(1)).matrix, [[0, 0.5j], [-0.5j, 0]])


def test_jx_traceless_and_hermitian():
    for tj in (0, 1, 4, 9):
        op = jx(HalfInteger(tj))
        assert abs(np.trace(op.matrix)) == 0.0
        assert op.hermiticity_residual() < 1e-15


@given(small_twice_j)
@settings(deadline=None)
def test_commutator_algebra(tj):
    j = HalfInteger(tj)
    d = j.dim
    assert np.linalg.norm(commutator(jplus(j), jminus(j)).matrix - 2 * jz(j).matrix) / d < 1e-12
    assert np.linalg.norm(commutator(jx(j), jy(j)).matrix - 1j * jz(j).matrix) / d < 1e-12
    assert np.linalg.norm(commutator(jy(j), jz(j)).matrix - 1j * jx(j).matrix) / d < 1e-12
    assert np.linalg.norm(commutator(jz(j), jx(j)).matrix - 1j * jy(j).matrix) / d < 1e-12
    # ladder weight relations
    assert np.linalg.norm(commutator(jplus(j), jz(j)).matrix + jplus(j).matrix) / d < 1e-12
    assert np.linalg.norm(commutator(jminus(j), jz(j)).matrix - jminus(j).matrix) / d < 1e-12


def test_casimir_examples():
    assert np.allclose(casimir(HalfInteger(1)).matrix, 0.75 * np.eye(2))
    assert np.allclose(casimir(HalfInteger(2)).matrix, 2.0 * np.eye(3))
    assert np.allclose(casimir(HalfInteger(20)).matrix, 110.0 * np.eye(21))


@given(small_twice_j)
@settings(deadline=None)
def test_casimir_commutes_with_generators(tj):
    j = HalfInteger(tj)
    cas = casimir(j)
    for gen in (jx(j), jy(j), jz(j)):
        assert np.linalg.norm(commutator(cas, gen).matrix) / j.dim < 1e-12


GENERATOR_TWICE_J = sorted({*range(62), *range(0, 401, 37)})


def test_generators_bit_identical_to_chained_builds():
    builders = {"jplus": jplus, "jminus": jminus, "jx": jx, "jy": jy, "jz": jz, "casimir": casimir}
    for tj in GENERATOR_TWICE_J:
        j = HalfInteger(tj)
        for name, want in chained_generators(j).items():
            got = builders[name](j)
            assert got.j == j
            assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
            assert got.matrix.tobytes() == want.matrix.tobytes(), (name, tj)
    # Two entries at most, whatever the sweep visited.
    assert _generators.cache_info().currsize <= 2


def test_cached_generators_are_read_only():
    j = HalfInteger(6)
    for op in (jplus, jminus, jx, jy, jz):
        with pytest.raises(ValueError):
            op(j).matrix[0, 0] = 1.0
    gens = _generators(6)
    for arr in gens.jx_eigensystem:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # The cache hands out the same objects, unchanged by the attempts above.
    assert jx(j) is gens.x
    assert jx(j).matrix.tobytes() == chained_generators(j)["jx"].matrix.tobytes()


def test_generator_cache_keeps_nothing_past_2j_400():
    assert jx(HalfInteger(400)) is jx(HalfInteger(400))
    big = jx(HalfInteger(401))
    assert big is not jx(HalfInteger(401))
    assert big.matrix.tobytes() == chained_generators(HalfInteger(401))["jx"].matrix.tobytes()


def test_generator_cache_under_threads():
    # More threads than cores, switching often, each cycling through more 2j
    # values than the cache holds: every result must still be the exact,
    # read-only generator of the 2j asked for.
    want = {tj: chained_generators(HalfInteger(tj)) for tj in range(9)}
    builders = {"jplus": jplus, "jminus": jminus, "jx": jx, "jy": jy, "jz": jz}
    errors = []

    def work(offset):
        try:
            for k in range(300):
                tj = (k + offset) % 9
                name = list(builders)[k % 5]
                got = builders[name](HalfInteger(tj)).matrix
                if got.flags.writeable or got.tobytes() != want[tj][name].matrix.tobytes():
                    errors.append((name, tj))
                if _generators(tj).jx_eigensystem[1].flags.writeable:
                    errors.append(("jx_eigensystem", tj))
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_expm_jz_full_turn():
    # integer j: 2pi turn is the identity; half-integer j: minus the identity
    j_int = HalfInteger(4)
    u = expm_hermitian(jz(j_int), 2 * math.pi).matrix
    assert np.allclose(u, np.eye(j_int.dim), atol=1e-12)
    j_half = HalfInteger(3)
    u = expm_hermitian(jz(j_half), 2 * math.pi).matrix
    assert np.allclose(u, -np.eye(j_half.dim), atol=1e-12)


def test_expm_zero_generator():
    j = HalfInteger(5)
    zero = SpinOperator(j, np.zeros((j.dim, j.dim)))
    assert np.array_equal(expm_hermitian(zero, 3.7).matrix, np.eye(j.dim))


def test_expm_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        expm_hermitian(jplus(HalfInteger(2)), 1.0)


@given(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
    st.floats(-3, 3), st.floats(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_expm_additive_in_time(a, b, c, t1, t2):
    j = HalfInteger(5)
    h = SpinOperator(j, a * jx(j).matrix + b * jy(j).matrix + c * jz(j).matrix)
    lhs = expm_hermitian(h, t1).matrix @ expm_hermitian(h, t2).matrix
    rhs = expm_hermitian(h, t1 + t2).matrix
    assert np.linalg.norm(lhs - rhs) / j.dim < 1e-10


@given(small_twice_j, st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_expm_unitary(tj, t):
    j = HalfInteger(tj)
    u = expm_hermitian(jy(j), t)
    assert u.unitarity_residual() < 1e-12


def test_state_norm_gate_and_snap():
    j = HalfInteger(1)
    with pytest.raises(ValueError):
        SpinState(j, [1.0, 1.0])
    # tiny drift gets renormalized, exact unit vectors are left untouched
    s = SpinState(j, [1.0 + 2e-12, 0.0])
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    exact = np.array([1.0, 0.0], dtype=complex)
    assert SpinState(j, exact).amplitudes.tobytes() == exact.tobytes()


def test_state_is_immutable():
    s = weight_state(HalfInteger(2), 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


def test_apply_checks_irrep():
    with pytest.raises(IrrepMismatch):
        identity(HalfInteger(2)).apply(weight_state(HalfInteger(4), 0))


def test_weight_state_validation():
    with pytest.raises(ValueError):
        weight_state(HalfInteger(2), 3)
    with pytest.raises(ValueError):
        weight_state(HalfInteger(3), 0)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_rotate_matches_dense_oracle(axis):
    rng = np.random.default_rng(4)
    gen = jx if axis == "x" else jy
    worst = 0.0
    for tj in range(62):
        j = HalfInteger(tj)
        for angle in (math.pi / 2, 0.37, -1.3, 5.0):
            v = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
            s = SpinState(j, v / np.linalg.norm(v))
            fast = rotate(s, axis, angle).amplitudes
            dense = expm_hermitian(gen(j), angle).apply(s).amplitudes
            worst = max(worst, float(np.max(np.abs(fast - dense))))
    assert worst <= 1e-12


def test_rotate_rejects_other_axes():
    with pytest.raises(ValueError):
        rotate(weight_state(HalfInteger(2), 0), "z", 1.0)


def test_import_loads_no_scipy():
    # spincat declares only numpy; importing scipy.linalg alone costs ~0.3 s
    # of CPU at start-up.
    import spincat

    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, spincat, spincat.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
