import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import chained_generators, commutator, identity, unitarity_residual
from spincat import (
    HalfInteger,
    IrrepMismatch,
    NonHermitianInput,
    SpinOperator,
    SpinState,
    TwoModeState,
    casimir,
    expm_hermitian,
    jminus,
    jplus,
    jx,
    jy,
    jz,
    m_values,
    make_noon,
    rotate,
    weight_state,
)
from spincat import su2
from spincat.coherent import _rotated_lowest, _sqrt_binomials
from spincat.su2 import _jx_eigensystem, _weights

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


def test_generators_and_kept_tables_are_read_only():
    j = HalfInteger(6)
    for op in (jplus, jminus, jx, jy, jz):
        with pytest.raises(ValueError):
            op(j).matrix[0, 0] = 1.0
    for arr in _jx_eigensystem(6):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert jx(j).matrix.tobytes() == chained_generators(j)["jx"].matrix.tobytes()


@pytest.mark.parametrize("tj", [6, 400])
def test_generator_matrices_do_not_outlive_their_caller(tj):
    # No generator is kept at any 2j: once its caller drops it, it is gone.
    j = HalfInteger(tj)
    for op in (jplus, jminus, jx, jy, jz):
        matrix = weakref.ref(op(j).matrix)
        assert matrix() is None, op.__name__


TABLES = [_jx_eigensystem, _sqrt_binomials, _weights]


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.__name__)
def test_per_twice_j_tables_keep_up_to_2j_64(table):
    # One rule for every table: kept up to 2j = 64, built afresh past it.
    for tj in (0, 1, 6, 63, 64, 65, 66, 200, 1030):
        first, again = table(tj), table(tj)
        if tj <= 64:
            assert again is first and table.kept[tj] is first, tj
        else:
            assert again is not first and tj not in table.kept, tj
        for got, repeat, want in zip(first, again, table.__wrapped__(tj)):
            assert not got.flags.writeable, tj
            assert got.dtype == want.dtype and got.shape == want.shape, tj
            assert got.tobytes() == repeat.tobytes() == want.tobytes(), tj


def test_weights_table_holds_m_the_band_and_the_y_phases():
    # Bit for bit what the kernels built per call before the table, on both
    # sides of the last kept 2j and past the float range of the binomials.
    for tj in [*range(66), 200, 1031]:
        j = HalfInteger(tj)
        want = (m_values(j), su2._ladder(j), su2._MINUS_I_POWERS[np.arange(j.dim) % 4])
        for got, ref in zip(_weights(tj), want, strict=True):
            assert got.dtype == ref.dtype and got.shape == ref.shape, tj
            assert got.tobytes() == ref.tobytes(), tj
            assert not got.flags.writeable, tj
            with pytest.raises(ValueError):
                got[...] = 0


def test_generators_and_kept_tables_under_threads():
    # More threads than cores, switching often, each cycling through 2j
    # values that straddle the last kept table: every result must still be
    # the exact, read-only generator or table of the 2j asked for.
    want = {tj: chained_generators(HalfInteger(tj)) for tj in range(9)}
    want_tables = {(table, tj): table.__wrapped__(tj) for table in TABLES for tj in range(60, 69)}
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
                table = TABLES[k % len(TABLES)]
                for arr, ref in zip(table(60 + tj), want_tables[table, 60 + tj]):
                    if arr.flags.writeable or arr.tobytes() != ref.tobytes():
                        errors.append((table.__name__, 60 + tj))
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


def _fresh_jx_eigensystem(j):
    # Jx's eigenvalues are the weights m exactly, so the table holds eigh's vectors alone.
    off = su2._ladder(j) / 2.0
    return (np.linalg.eigh(np.diag(off, k=-1) + np.diag(off, k=1))[1],)


def test_jx_memo_gives_the_bytes_of_a_fresh_eigh(monkeypatch):
    # 0..70 straddles the last kept 2j, 64.  With the memo emptied, the
    # first call builds afresh and the second reads what the first kept.
    monkeypatch.setattr(_jx_eigensystem, "kept", {})
    rng = np.random.default_rng(70)
    for tj in range(71):
        j = HalfInteger(tj)
        for got, want in zip(_jx_eigensystem(tj), _fresh_jx_eigensystem(j)):
            assert got.tobytes() == want.tobytes(), tj
        psi = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
        state = SpinState(j, psi / np.linalg.norm(psi))
        gamma = complex(rng.normal(), rng.normal())
        calls = [
            lambda: rotate(state, "x", 0.83).amplitudes,
            lambda: rotate(state, "y", 0.83).amplitudes,
            lambda: _rotated_lowest(j, [gamma]),
        ]
        cold = []
        for call in calls:
            _jx_eigensystem.kept.pop(tj, None)
            cold.append(call().tobytes())
        assert [call().tobytes() for call in calls] == cold, tj
    assert sorted(_jx_eigensystem.kept) == list(range(65))


def test_jx_memo_is_read_only():
    for tj in (0, 6, 64, 65, 200):
        (v,) = _jx_eigensystem(tj)
        with pytest.raises(ValueError):
            v[0] = 1.0
    # What was kept is unchanged by the attempts above.
    j = HalfInteger(6)
    for got, want in zip(_jx_eigensystem(6), _fresh_jx_eigensystem(j)):
        assert got.tobytes() == want.tobytes()


def test_large_noon_runs_keep_no_jx_eigensystem():
    # noon-large's distinct N must not pin a per-2j table each: neither Jx's
    # O(d^2) eigenvectors nor the binomials.
    for n in range(200, 1001, 37):
        make_noon(n)
    for table in TABLES:
        assert all(tj <= 64 for tj in table.kept), table.__name__


def test_warm_verify_suite_builds_no_table():
    # Every 2j verify visits is at most 64, so once warm it reads each
    # table from what was kept and calls neither builder.
    import cProfile
    import pstats

    from spincat.verify import run_suite

    run_suite(60)
    profile = cProfile.Profile()
    profile.runcall(run_suite, 60)
    stats = pstats.Stats(profile).stats
    for table in TABLES:
        code = table.__wrapped__.__code__
        calls = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        assert calls == 0, table.__name__


def test_verify_suite_same_cold_and_warm():
    # A fresh process starts with an empty memo; this one has run the suite
    # before, so every kept 2j is a hit.
    import spincat
    from spincat.verify import run_suite

    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, pickle; from spincat.verify import run_suite; sys.stdout.buffer.write(pickle.dumps(run_suite(60, 7)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120, check=True)
    run_suite(60, 8)
    assert pickle.loads(done.stdout) == run_suite(60, 7)


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
    assert unitarity_residual(u) < 1e-12


def test_state_norm_gate_and_snap():
    j = HalfInteger(1)
    with pytest.raises(ValueError):
        SpinState(j, [1.0, 1.0])
    # tiny drift gets renormalized, exact unit vectors are left untouched
    s = SpinState(j, [1.0 + 2e-12, 0.0])
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    exact = np.array([1.0, 0.0], dtype=complex)
    assert SpinState(j, exact).amplitudes.tobytes() == exact.tobytes()


STATE_BUILDERS = [
    pytest.param(lambda amps: SpinState(HalfInteger(len(amps) - 1), amps), id="spin"),
    pytest.param(lambda amps: TwoModeState(len(amps) - 1, amps), id="two-mode"),
]


@pytest.mark.parametrize("build", STATE_BUILDERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["re", "im"])
def test_state_rejects_non_finite_entries(build, bad, part):
    amps = np.array([0.6, 0.8, 0.0], dtype=complex)
    amps[2] = complex(bad, 0.0) if part == "re" else complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite entries"):
        build(amps)


@pytest.mark.parametrize("build", STATE_BUILDERS)
def test_state_rejects_huge_finite_entry_by_its_norm(build):
    # The squared norm overflows to inf; numpy's warning about that is not
    # what is tested here.
    with np.errstate(over="ignore"):
        for amps in ([1e200, 0.0, 0.0], [0.0, 1e200j, 0.0]):
            with pytest.raises(ValueError, match="state norm inf is not 1"):
                build(np.array(amps, dtype=complex))


def test_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected shape"):
        SpinState(HalfInteger(2), [1.0, 0.0])
    with pytest.raises(ValueError, match="expected shape"):
        TwoModeState(2, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("d", [1, 2, 61, 401, 1001])
def test_state_norm_is_numpy_norm(d):
    # The validator's norm is `==` to np.linalg.norm: it appears in the gate's
    # message, and a drifted vector is divided by it.
    rng = np.random.default_rng(d)
    j = HalfInteger(d - 1)
    for _ in range(40):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        far = psi * rng.uniform(2.0, 50.0) / np.linalg.norm(psi)
        with pytest.raises(ValueError) as err:
            SpinState(j, far)
        assert str(err.value) == f"state norm {float(np.linalg.norm(far))} is not 1 within 1e-09"
        drifted = psi * (1.0 + 1e-11) / np.linalg.norm(psi)
        want = drifted / float(np.linalg.norm(drifted))
        assert SpinState(j, drifted).amplitudes.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_column_of_functions_is_one_rotation_per_column(axis):
    # A d x 1 state and a d x n matrix of values give n columns, each the
    # vector route's result, on both sides of the kept 2j = 64.
    rng = np.random.default_rng(5)
    angles = np.array([math.pi / 2, 0.37, -1.3])
    for tj in (0, 7, 64, 65):
        j = HalfInteger(tj)
        v = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
        s = SpinState(j, v / np.linalg.norm(v))
        columns = su2._apply_function(j, axis, lambda w: np.exp(-1j * np.outer(w, angles)), s.amplitudes[:, None])
        assert columns.shape == (j.dim, angles.size)
        for column, angle in zip(columns.T, angles):
            assert np.max(np.abs(column - rotate(s, axis, angle).amplitudes)) <= 1e-14


def test_rotate_rejects_other_axes():
    with pytest.raises(ValueError):
        rotate(weight_state(HalfInteger(2), 0), "z", 1.0)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rotate_refuses_a_non_finite_angle(axis, angle):
    # Refused up front: no RuntimeWarning from the phases comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not finite"):
            rotate(weight_state(HalfInteger(4), 2), axis, angle)


def test_import_loads_no_scipy():
    # spincat declares only numpy; importing scipy.linalg alone costs ~0.3 s
    # of CPU at start-up.
    import spincat

    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, spincat, spincat.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
