import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    amplitudes_one_label,
    coherent_amplitudes_direct,
    coherent_expansion_trig,
    coherent_overlap_formula,
    expectation,
    jy_extremal_states,
    rotation_operator_dense,
)
from spincat import (
    BlochDirection,
    CatDecomposition,
    HalfInteger,
    IrrepMismatch,
    PoleLabel,
    SpinState,
    SpinorLabel,
    as_label,
    bloch_direction,
    coherent_expansion,
    fidelity,
    husimi_grid,
    jx,
    jy,
    jz,
    mean_spin,
    overlap,
    rotate,
    rotate_label,
    stereographic,
    weight_state,
)
from spincat.coherent import _amplitudes, _binomial_weights, _label_columns, _rotated_lowest, _sqrt_binomials

gammas = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
small_twice_j = st.integers(min_value=0, max_value=20)


def test_expansion_frozen_examples():
    # gamma = 0 puts all weight on m = -j
    s = coherent_expansion(HalfInteger(9), 0.0)
    assert s.amplitudes[0] == 1.0 and np.count_nonzero(s.amplitudes) == 1
    # j=1, gamma=i
    s = coherent_expansion(HalfInteger(2), 1j)
    assert np.allclose(s.amplitudes, [0.5, 1j / math.sqrt(2), -0.5], atol=1e-15)
    # j=1/2, gamma=1
    s = coherent_expansion(HalfInteger(1), 1.0)
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    # pole puts all weight on m = +j
    s = coherent_expansion(HalfInteger(9), as_label(math.inf))
    assert s.amplitudes[-1] == 1.0 and np.count_nonzero(s.amplitudes) == 1


@given(small_twice_j, gammas)
@settings(max_examples=60, deadline=None)
def test_expansion_matches_direct_power_series(tj, g):
    got = coherent_expansion(HalfInteger(tj), g).amplitudes
    want = coherent_amplitudes_direct(tj, g)
    assert np.allclose(got, want, atol=1e-13)


def test_rotation_identity_at_zero():
    # theta = 0 leaves |j,-j> exactly where it is.
    assert np.array_equal(_rotated_lowest(HalfInteger(4), [0.0]), np.eye(5)[:, :1])


@given(small_twice_j, gammas)
@settings(max_examples=60, deadline=None)
def test_rotation_builds_the_expansion(tj, g):
    j = HalfInteger(tj)
    built = SpinState(j, _rotated_lowest(j, [g])[:, 0])
    want = coherent_expansion(j, g)
    # componentwise, not only up to phase
    assert np.allclose(built.amplitudes, want.amplitudes, atol=1e-12)
    assert fidelity(built, want) > 1 - 1e-12


@given(small_twice_j, gammas)
@settings(max_examples=40, deadline=None)
def test_rotation_unitary(tj, g):
    # A unitary's column is a unit vector.
    assert abs(np.linalg.norm(_rotated_lowest(HalfInteger(tj), [g])[:, 0]) - 1.0) < 1e-12


def test_rotation_operator_matches_dense_oracle():
    # Column 0 of the dense rotation, every label of a 2j in one batch.
    rng = np.random.default_rng(11)
    special = [1e-8, 1e-8j, -1e3, 1e3 * np.exp(2.1j), 0.7, -1.9, 0.4j, -2.5j]
    worst_diff = worst_column = 0.0
    for tj in range(62):
        j = HalfInteger(tj)
        randoms = rng.uniform(0.05, 3.0, 4) * np.exp(1j * rng.uniform(-math.pi, math.pi, 4))
        labels = [*special, *randoms]
        for column, g in zip(_rotated_lowest(j, labels).T, labels):
            worst_diff = max(worst_diff, float(np.max(np.abs(column - rotation_operator_dense(j, g).matrix[:, 0]))))
            # The lowest-weight column is |j,gamma>, entry by entry.
            want = coherent_expansion(j, g).amplitudes
            worst_column = max(worst_column, float(np.max(np.abs(column - want))))
    assert worst_diff <= 1e-13
    assert worst_column <= 1e-13


@pytest.mark.parametrize("tj", [0, 1, 2, 21, 60, 200, 1029, 1030, 1100])
def test_expansion_bit_identical_to_trig_route(tj):
    # 1030 and 1100 take the log-space binomials; inf is the pole (0, 1).
    rng = np.random.default_rng(tj)
    randoms = rng.uniform(0.05, 3.0, 3) * np.exp(1j * rng.uniform(-math.pi, math.pi, 3))
    j = HalfInteger(tj)
    for g in (0.0, 1.0, 1j, -1.7 + 0.2j, math.inf, *randoms):
        assert np.array_equal(coherent_expansion(j, g).amplitudes, coherent_expansion_trig(j, g).amplitudes)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("tj", [1, 2, 7, 40, 101, 400])
def test_rotate_label_matches_state_rotation(axis, tj):
    # Entry by entry, so the global phase is checked too.
    rng = np.random.default_rng(tj)
    j = HalfInteger(tj)
    randoms = rng.uniform(0.05, 3.0, 3) * np.exp(1j * rng.uniform(-math.pi, math.pi, 3))
    for g in (math.inf, 0.0, *randoms):
        for angle in (math.pi / 2, -math.pi / 2, *rng.uniform(-2 * math.pi, 2 * math.pi, 2)):
            label = rotate_label(g, axis, angle)
            want = rotate(coherent_expansion(j, g), axis, angle).amplitudes
            assert np.max(np.abs(coherent_expansion(j, label).amplitudes - want)) <= 1e-13
            # and on from the rotated label, whose u carries a phase
            again = rotate(coherent_expansion(j, label), axis, angle).amplitudes
            assert np.max(np.abs(coherent_expansion(j, rotate_label(label, axis, angle)).amplitudes - again)) <= 1e-13


def test_label_moduli_bit_identical_to_numpy_trig():
    # as_label takes cos and sin of atan|gamma| from math; they must be the
    # bits np.cos and np.sin give, which every expansion was built from.
    rng = np.random.default_rng(5)
    mags = np.concatenate([rng.uniform(0.0, 3.0, 20000), 10.0 ** rng.uniform(-8, 8, 20000)])
    for g in (mags * np.exp(1j * rng.uniform(-math.pi, math.pi, mags.size))).tolist():
        label = as_label(g)
        half = math.atan(abs(g))
        assert (label.u_abs, label.v_abs) == (float(np.cos(half)), float(np.sin(half)))


def test_spinor_label_gamma_and_negation():
    for g in (0.0, 1j, -1.7 + 0.2j, 3e5 - 2j):
        label = as_label(g)
        assert label.gamma == g and label.negated().gamma == -g
        assert label.u_abs**2 + label.v_abs**2 == pytest.approx(1.0, abs=1e-15)
    pole = as_label(math.inf)
    assert (pole.u_abs, pole.v_abs) == (0.0, 1.0) and math.isinf(abs(pole.gamma))
    # -v at the pole is the same ray, (-1)^{2j} |j,+j>
    assert coherent_expansion(HalfInteger(3), pole.negated()).amplitudes[-1] == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(ValueError):
        as_label(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        SpinorLabel(0.6, 0.6, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpinorLabel(0.0, 1.0, 1.0, 1.0)  # |u| = 0 with a u direction
    with pytest.raises(ValueError):
        rotate_label(pole, "z", 1.0)


@pytest.mark.parametrize(
    "gamma",
    [complex(math.inf, math.nan), complex(math.nan, math.inf), complex(math.nan, 0.0)],
    ids=["inf-nan", "nan-inf", "nan-0"],
)
def test_a_gamma_with_a_nan_part_is_refused_not_read_as_the_pole(gamma):
    # abs() of the first two is inf, which once gave the pole label and |j,+j>.
    with pytest.raises(ValueError, match="has a NaN part"):
        as_label(gamma)
    with pytest.raises(ValueError, match="has a NaN part"):
        coherent_expansion(HalfInteger(2), gamma)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rotate_label_refuses_a_non_finite_angle(axis, angle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not finite"):
            rotate_label(0.3 + 0.4j, axis, angle)


def test_rotation_rejects_pole():
    with pytest.raises(PoleLabel):
        _rotated_lowest(HalfInteger(2), [as_label(math.inf)])


def test_stereographic_frozen_points():
    assert stereographic(BlochDirection(math.pi / 2, math.pi / 2)).gamma == pytest.approx(1j)
    assert stereographic(BlochDirection(0.0, 1.2)).gamma == 0.0
    assert stereographic(BlochDirection(math.pi / 2, 0.0)).gamma == pytest.approx(1.0)
    assert math.isinf(abs(stereographic(BlochDirection(math.pi, 0.3)).gamma))
    assert bloch_direction(as_label(math.inf)).theta == math.pi


@given(
    st.floats(min_value=1e-9, max_value=math.pi - 1e-6),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
@settings(max_examples=80)
def test_stereographic_round_trip(theta, phi):
    d = bloch_direction(stereographic(BlochDirection(theta, phi)))
    assert d.theta == pytest.approx(theta, abs=1e-12)
    assert abs(math.remainder(d.phi - phi, 2 * math.pi)) < 1e-12


@given(gammas)
@settings(max_examples=60)
def test_label_round_trip(g):
    label = as_label(g)
    back = stereographic(bloch_direction(label))
    assert abs(back.gamma - label.gamma) <= 1e-12 * (1 + abs(label.gamma))


def test_direction_validation():
    with pytest.raises(ValueError):
        BlochDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochDirection(math.pi + 0.1, 0.0)
    assert BlochDirection(1.0, 2 * math.pi + 0.5).phi == pytest.approx(0.5)


def test_overlap_self_is_one():
    s = coherent_expansion(HalfInteger(7), 0.4 - 1.1j)
    assert overlap(s, s) == pytest.approx(1.0, abs=1e-14)


def test_overlap_irrep_mismatch():
    with pytest.raises(IrrepMismatch):
        overlap(weight_state(HalfInteger(2), 0), weight_state(HalfInteger(4), 0))


def test_overlap_frozen_examples():
    # orthogonal equatorial pair
    for tj in (1, 2, 5, 14):
        j = HalfInteger(tj)
        assert abs(overlap(coherent_expansion(j, 1j), coherent_expansion(j, -1j))) < 1e-15
    # |<1/2,0|1/2,1>| = 1/sqrt(2)
    j = HalfInteger(1)
    got = overlap(coherent_expansion(j, 0.0), coherent_expansion(j, 1.0))
    assert got == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@given(small_twice_j, gammas, gammas)
@settings(max_examples=60, deadline=None)
def test_overlap_matches_closed_form(tj, g1, g2):
    j = HalfInteger(tj)
    got = overlap(coherent_expansion(j, g1), coherent_expansion(j, g2))
    assert got == pytest.approx(coherent_overlap_formula(tj, g1, g2), abs=1e-12)


def test_jy_extremal_pairing_convention():
    # frozen convention at j = 1/2: |j,+i> is the eigenvalue -j eigenvector
    j = HalfInteger(1)
    plus, minus = jy_extremal_states(j)
    assert expectation(jy(j), plus).real == pytest.approx(0.5, abs=1e-12)
    assert expectation(jy(j), minus).real == pytest.approx(-0.5, abs=1e-12)
    assert fidelity(minus, coherent_expansion(j, 1j)) > 1 - 1e-12
    assert fidelity(plus, coherent_expansion(j, -1j)) > 1 - 1e-12


@pytest.mark.parametrize("tj", [1, 2, 3, 8, 17, 30])
def test_jy_extremal_properties(tj):
    j = HalfInteger(tj)
    plus, minus = jy_extremal_states(j)
    assert expectation(jy(j), plus).real == pytest.approx(tj / 2, abs=1e-12)
    assert expectation(jy(j), minus).real == pytest.approx(-tj / 2, abs=1e-12)
    assert abs(overlap(plus, minus)) < 1e-12
    # phase convention: equal to the coherent states, not only up to phase
    assert np.allclose(plus.amplitudes, coherent_expansion(j, -1j).amplitudes, atol=1e-10)
    assert np.allclose(minus.amplitudes, coherent_expansion(j, 1j).amplitudes, atol=1e-10)


def test_mean_spin_frozen():
    j = HalfInteger(6)
    assert np.allclose(mean_spin(weight_state(j, 6)), [0, 0, 3], atol=1e-13)
    # |j,i> sits on the equator pointing along -y under this convention
    assert np.allclose(mean_spin(coherent_expansion(j, 1j)), [0, -3, 0], atol=1e-13)
    assert np.allclose(mean_spin(coherent_expansion(j, as_label(math.inf))), [0, 0, 3], atol=1e-13)


def test_mean_spin_matches_the_dense_generators():
    rng = np.random.default_rng(11)
    for tj in range(41):
        j = HalfInteger(tj)
        for _ in range(4):
            amps = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
            state = SpinState(j, amps / np.linalg.norm(amps))
            want = np.array([expectation(op(j), state).real for op in (jx, jy, jz)])
            assert np.max(np.abs(mean_spin(state) - want)) <= 1e-14 * np.max(np.abs(want)), tj


@given(st.integers(min_value=1, max_value=20), st.floats(0, 2 * math.pi, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_equatorial_antipodality(tj, phase):
    j = HalfInteger(tj)
    g = np.exp(1j * phase)
    total = mean_spin(coherent_expansion(j, g)) + mean_spin(coherent_expansion(j, -g))
    assert np.max(np.abs(total)) < 1e-10


@given(st.integers(min_value=1, max_value=16), gammas)
@settings(max_examples=30, deadline=None)
def test_mean_spin_magnitude_is_j(tj, g):
    vec = mean_spin(coherent_expansion(HalfInteger(tj), g))
    assert np.linalg.norm(vec) == pytest.approx(tj / 2, abs=1e-10)


def test_cat_decomposition_materializes_to_unit_norm():
    # orthogonality is not assumed: cross terms must cancel through the
    # purely imaginary coefficient product
    j = HalfInteger(8)
    g = 0.3 + 0.4j
    cat = CatDecomposition(
        j,
        (
            (as_label(g), np.exp(-1j * math.pi / 4) / math.sqrt(2)),
            (as_label(-g), np.exp(1j * math.pi / 4) / math.sqrt(2)),
        ),
    )
    (_, coeff_plus), (_, coeff_minus) = cat.components
    raw = (
        coeff_plus * coherent_expansion(j, g).amplitudes
        + coeff_minus * coherent_expansion(j, -g).amplitudes
    )
    assert np.linalg.norm(raw) == pytest.approx(1.0, abs=1e-12)
    assert cat.materialize().norm() == pytest.approx(1.0, abs=1e-12)


def test_husimi_grid_range_and_peaks():
    j = HalfInteger(10)
    thetas, phis, q = husimi_grid(weight_state(j, 10), 41, 60)
    assert q.min() >= 0.0 and q.max() <= 1.0 + 1e-12
    # all weight on m = +j peaks at the theta = pi pole
    it, _ = np.unravel_index(np.argmax(q), q.shape)
    assert thetas[it] == pytest.approx(math.pi)


def test_husimi_values_match_overlaps():
    j = HalfInteger(5)
    state = coherent_expansion(j, 0.7 - 0.2j)
    thetas, phis, q = husimi_grid(state, 9, 8)
    for it in (0, 3, 8):
        for ip in (0, 5):
            probe = coherent_expansion(j, stereographic(BlochDirection(thetas[it], phis[ip])))
            assert q[it, ip] == pytest.approx(abs(overlap(probe, state)) ** 2, abs=1e-13)


@pytest.mark.parametrize("half", [0.7, np.array([[0.3], [0.9], [1.4]])], ids=["scalar", "column"])
def test_binomial_weights_bit_identical_to_comb(half):
    # 1029 is the largest 2j whose binomials all fit in a float.
    for tj in sorted({*range(65), *range(0, 1030, 37), 1029}):
        k = np.arange(tj + 1)
        sqrt_binomials = np.sqrt(np.array([math.comb(tj, i) for i in range(tj + 1)], dtype=float))
        want = sqrt_binomials * np.cos(half) ** (tj - k) * np.sin(half) ** k
        assert np.array_equal(_binomial_weights(tj, np.cos(half), np.sin(half)), want)


def test_sqrt_binomials_cache_is_read_only_and_small():
    for tj in (3, 1030, 2000, 7):
        for arr in _sqrt_binomials(tj):
            with pytest.raises(ValueError):
                arr[...] = 0
    # Small: nothing past 2j = 64 is kept.
    assert all(tj <= 64 for tj in _sqrt_binomials.kept)
    assert _sqrt_binomials(1030) is not _sqrt_binomials(1030)
    # The weights handed out are fresh arrays: writing one leaves the next call unchanged.
    cos, sin = np.cos(0.4), np.sin(0.4)
    w = _binomial_weights(7, cos, sin)
    w[:] = 0.0
    assert np.array_equal(_binomial_weights(7, cos, sin), _binomial_weights(7, np.array([[cos]]), np.array([[sin]]))[0])
    assert np.all(_binomial_weights(7, cos, sin) > 0)


@pytest.mark.parametrize("twice_j", [0, 1, 7, 64, 65, 1030, 2000])
def test_amplitudes_rows_are_the_one_label_formula_bit_for_bit(twice_j):
    # 64 and 65 sit on either side of the kept binomial tables, 1030 and 2000
    # take the log-space binomials; the rotated label carries a phase on u.
    labels = [0.0, math.inf, 1j, -1.7 + 0.2j, rotate_label(0.3 + 0.8j, "x", 0.7)]
    assert labels[-1].phases[0] != 0.0
    rows = _amplitudes(twice_j, labels)
    assert rows.shape == (len(labels), twice_j + 1)
    for row, gamma in zip(rows, labels):
        assert np.array_equal(row, _amplitudes(twice_j, [gamma])[0])
        assert np.array_equal(row, amplitudes_one_label(twice_j, gamma))


def test_label_columns_are_each_labels_fields_bit_for_bit():
    # One np.angle call over every label gives each label's own `phases`,
    # signed zeros included, wherever the label sits in the batch.
    rng = np.random.default_rng(11)
    gammas = (rng.normal(size=300) + 1j * rng.normal(size=300)) * np.exp(rng.uniform(-20.0, 20.0, size=300))
    labels = [as_label(g) for g in [0.0, -0.0, math.inf, -1.0, 1j, -1j, *gammas]]
    labels += [rotate_label(label, "xy"[k % 2], 0.1 * k) for k, label in enumerate(labels[::7])]
    labels += [label.negated() for label in labels[::5]]
    for n in (1, 2, 3, len(labels)):
        columns = _label_columns(labels[-n:])
        assert all(column.shape == (n, 1) for column in columns)
        for k, label in enumerate(labels[-n:]):
            want = (label.u_abs, label.v_abs, *label.phases)
            assert [column[k, 0].hex() for column in columns] == [float(x).hex() for x in want], k


@pytest.mark.parametrize("thetas", [1.1, np.array([[0.0], [0.4], [math.pi / 2], [2.9], [math.pi]])], ids=["scalar", "column"])
@pytest.mark.parametrize("tj", [1030, 2000, 4000, 10000])
def test_binomial_weights_past_float_range(tj, thetas):
    # From 2j = 1030 on the largest binomials overflow a float; the poles
    # put log 0 = -inf into the log form, which must give 0, not NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        half = np.divide(thetas, 2.0)
        w = _binomial_weights(tj, np.cos(half), np.sin(half))
    j = tj / 2
    m = np.arange(tj + 1) - j
    assert np.isfinite(w).all()
    assert np.abs((w**2).sum(axis=-1) - 1.0).max() <= 1e-11
    jz_mean = (w**2 * m).sum(axis=-1)
    assert np.abs(jz_mean + j * np.cos(np.ravel(thetas))).max() <= 1e-11 * j
