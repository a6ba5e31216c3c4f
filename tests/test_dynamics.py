import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    jy_extremal_states,
    quarter_evolve_with_lambda,
    quarter_period_unitary_dense,
    quarter_phase_factors,
    x_rotation_dense,
)
from spincat import (
    HalfInteger,
    HalfIntegerUnsupported,
    NonFinitePhase,
    PoleLabel,
    SpinState,
    ZeroSpin,
    cat_scan,
    coherent_expansion,
    fidelity,
    fit_two_component,
    jy,
    jz,
    kerr_hamiltonian,
    predicted_cat,
    quarter_period_evolve,
    rotate,
    rotate_label,
    rotated_cat_prediction,
    weight_state,
)
from spincat import su2
from spincat.dynamics import CatScanRow, _quarter_period_cats, _rotated_identity_routes
from spincat.su2 import expm_hermitian
from spincat.verify import run_suite


def test_zero_spin_and_an_unknown_axis_are_refused():
    with pytest.raises(ZeroSpin):
        kerr_hamiltonian(HalfInteger(0))
    with pytest.raises(ZeroSpin):
        quarter_period_evolve(weight_state(HalfInteger(0), 0))
    with pytest.raises(ValueError):
        kerr_hamiltonian(HalfInteger(2), axis="x")


def test_kerr_matrix_examples():
    # j=1, omega=0: quadratic term alone, m^2 / 2j
    h = kerr_hamiltonian(HalfInteger(2))
    assert np.allclose(h.matrix, np.diag([0.5, 0.0, 0.5]), atol=1e-15)


def test_axis_y_is_x_conjugate_of_axis_z():
    for tj in (2, 5, 8):
        j = HalfInteger(tj)
        rx = x_rotation_dense(j, math.pi / 2)
        hz = kerr_hamiltonian(j, axis="z").matrix
        hy = kerr_hamiltonian(j, axis="y").matrix
        conj = rx.matrix @ hz @ rx.dagger().matrix
        assert np.linalg.norm(conj - hy) / j.dim < 1e-12


def test_x_conjugation_signs():
    # frozen convention: the x quarter turn maps Jz to -Jy, and Jz^2 to Jy^2
    for tj in (1, 2, 4, 7):
        j = HalfInteger(tj)
        rx = x_rotation_dense(j, math.pi / 2)
        conj_z = rx.matrix @ jz(j).matrix @ rx.dagger().matrix
        assert np.linalg.norm(conj_z + jy(j).matrix) / j.dim < 1e-12
        conj_z2 = rx.matrix @ jz(j).matrix @ jz(j).matrix @ rx.dagger().matrix
        assert np.linalg.norm(conj_z2 - jy(j).matrix @ jy(j).matrix) / j.dim < 1e-12


@given(st.floats(0.05, 5.0))
@settings(max_examples=25, deadline=None)
def test_conjugation_consistency_over_time(t):
    # omega = 0: conjugating the z evolution gives the y evolution at any t
    j = HalfInteger(6)
    rx = x_rotation_dense(j, math.pi / 2)
    uz = expm_hermitian(kerr_hamiltonian(j, axis="z"), t)
    uy = expm_hermitian(kerr_hamiltonian(j, axis="y"), t)
    lhs = rx.matrix @ uz.matrix @ rx.dagger().matrix
    assert np.linalg.norm(lhs - uy.matrix) / j.dim < 1e-10


def test_quarter_evolution_frozen_j1():
    j = HalfInteger(2)
    out = quarter_period_evolve(coherent_expansion(j, 1j))
    assert np.allclose(out.amplitudes, [-0.5j, 1j / math.sqrt(2), 0.5j], atol=1e-12)


def test_quarter_evolution_is_phasewise_in_z_basis():
    # oracle: per-weight phases exp(-i pi m^2 / 2), omega = 0
    for tj in (2, 3, 7, 12):
        j = HalfInteger(tj)
        s = coherent_expansion(j, 0.8 - 0.3j)
        out = quarter_period_evolve(s)
        assert np.allclose(out.amplitudes, quarter_phase_factors(tj) * s.amplitudes, atol=1e-12)


@pytest.mark.parametrize("omega", [0.0, 0.7, -2.0])
def test_quarter_evolution_matches_dense_oracle(omega):
    rng = np.random.default_rng(5)
    for tj in range(1, 62):
        j = HalfInteger(tj)
        v = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
        s = SpinState(j, v / np.linalg.norm(v))
        fast = quarter_period_evolve(s, omega).amplitudes
        dense = quarter_period_unitary_dense(j, omega).apply(s).amplitudes
        assert np.max(np.abs(fast - dense)) <= 1e-12


# Every 2j <= 120 (past the 64 kept spectra) and every 37th up to 401.
ROTATION_GRID = sorted(set(range(121)) | set(range(0, 402, 37)))
ROTATION_ANGLES = [math.pi / 2, -math.pi / 2, 0.3, math.pi]


def _rotate_matches(axis, angle, dense):
    rng = np.random.default_rng(7)
    for tj in ROTATION_GRID:
        j = HalfInteger(tj)
        v = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
        s = SpinState(j, v / np.linalg.norm(v))
        want = dense(j).apply(s).amplitudes
        assert np.max(np.abs(rotate(s, axis, angle).amplitudes - want)) <= 1e-12, tj


@pytest.mark.parametrize("angle", ROTATION_ANGLES)
def test_x_rotation_matches_dense_oracle(angle):
    _rotate_matches("x", angle, lambda j: x_rotation_dense(j, angle))


@pytest.mark.parametrize("angle", ROTATION_ANGLES)
def test_y_rotation_matches_dense_oracle(angle):
    _rotate_matches("y", angle, lambda j: expm_hermitian(jy(j), angle))


def _random_states(seed):
    rng = np.random.default_rng(seed)
    for tj in range(1, 62):
        v = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
        yield SpinState(HalfInteger(tj), v / np.linalg.norm(v))


@pytest.mark.parametrize("omega", [0.0, 0.7, -2.0, 2.0 / 3.0])
def test_quarter_evolution_is_the_lambda_one_twist_bit_for_bit(omega):
    for s in _random_states(11):
        want = quarter_evolve_with_lambda(s, omega, 1.0)
        assert np.array_equal(quarter_period_evolve(s, omega).amplitudes, want)


@pytest.mark.parametrize("lam", [0.5, 1.3, 2.0])
@pytest.mark.parametrize("omega", [0.0, 0.7, -2.0, 2.0 / 3.0])
def test_lambda_only_rescales_omega(omega, lam):
    # The quarter period of omega J_z + (lam/2j) J_z^2 reaches the state
    # the twist reaches at omega / lam.
    for s in _random_states(12):
        want = quarter_evolve_with_lambda(s, omega, lam)
        assert np.max(np.abs(quarter_period_evolve(s, omega / lam).amplitudes - want)) <= 1e-12


@pytest.mark.parametrize("tj", [2, 7, 60])
def test_overflowing_twist_phase_is_refused(tj):
    s = weight_state(HalfInteger(tj), tj)
    with pytest.raises(NonFinitePhase):
        quarter_period_evolve(s, 1e308)
    with pytest.raises(NonFinitePhase):
        quarter_period_evolve(s, -1e308)


def test_quarter_evolution_spin_half_is_global_phase():
    j = HalfInteger(1)
    s = coherent_expansion(j, 0.37 + 0.1j)
    out = quarter_period_evolve(s)
    assert np.allclose(out.amplitudes, np.exp(-1j * math.pi / 8) * s.amplitudes, atol=1e-12)


def test_full_period_returns_identity_for_integer_j():
    for tj in (2, 6, 10):
        j = HalfInteger(tj)
        u = expm_hermitian(kerr_hamiltonian(j), 2 * math.pi * tj).matrix  # 4 pi j
        assert np.allclose(u, np.eye(j.dim), atol=1e-11)


def test_predicted_cat_coefficients():
    (label_plus, coeff_plus), (label_minus, coeff_minus) = predicted_cat(HalfInteger(2), 1j).components  # j = 1, odd
    assert coeff_plus == pytest.approx(np.exp(-1j * math.pi / 4) / math.sqrt(2))
    assert coeff_minus == pytest.approx(-np.exp(1j * math.pi / 4) / math.sqrt(2))
    assert label_plus.gamma == 1j and label_minus.gamma == -1j
    (_, coeff_minus) = predicted_cat(HalfInteger(4), 1j).components[1]  # j = 2, even
    assert coeff_minus == pytest.approx(np.exp(1j * math.pi / 4) / math.sqrt(2))
    with pytest.raises(HalfIntegerUnsupported):
        predicted_cat(HalfInteger(3), 1j)


@pytest.mark.parametrize(
    "tj,g,tol",
    [(2, 1j, 1e-12), (14, 1j, 1e-10), (24, 0.3 + 0.4j, 1e-10), (8, 1.0, 1e-10)],
)
def test_cat_identity_fidelity(tj, g, tol):
    evolved = quarter_period_evolve(coherent_expansion(HalfInteger(tj), g))
    assert fidelity(evolved, predicted_cat(evolved.j, g).materialize()) >= 1 - tol


def test_cat_identity_gate():
    evolved = quarter_period_evolve(coherent_expansion(HalfInteger(3), 1j))
    with pytest.raises(HalfIntegerUnsupported):
        fidelity(evolved, predicted_cat(evolved.j, 1j).materialize())
    # The identity holds wherever the linear phase clears: j=3, omega=2/3
    # gives omega * tau/4 = 2 pi exactly
    evolved = quarter_period_evolve(coherent_expansion(HalfInteger(6), 1j), 2.0 / 3.0)
    assert fidelity(evolved, predicted_cat(evolved.j, 1j).materialize()) >= 1 - 1e-10


def test_cat_relative_phase():
    for jj in (1, 2, 3, 5, 9):
        j = HalfInteger(2 * jj)
        evolved = quarter_period_evolve(coherent_expansion(j, 1j))
        _, c_plus, c_minus = fit_two_component(evolved, 1j)
        want = math.pi / 2 + jj * math.pi
        assert abs(math.remainder(np.angle(c_minus / c_plus) - want, 2 * math.pi)) < 1e-8


@pytest.mark.parametrize("twice_j", [1, 2, 24, 64, 65, 1029, 1030, 2000])
def test_fit_two_component_bit_identical_to_two_expansions(twice_j):
    # 64 keeps its binomial table and 65 builds it afresh; 1030 and 2000 take the log-space binomials.
    j = HalfInteger(twice_j)
    rng = np.random.default_rng(twice_j)
    noise = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
    for gamma in (1j, 0.3 + 0.8j, -1.7 + 0.2j, -0.4 - 2.5j):
        evolved = quarter_period_evolve(coherent_expansion(j, gamma))
        for state in (evolved, SpinState(j, noise / np.linalg.norm(noise))):
            basis = np.column_stack(
                [coherent_expansion(j, gamma).amplitudes, coherent_expansion(j, -gamma).amplitudes]
            )
            coeffs, *_ = np.linalg.lstsq(basis, state.amplitudes, rcond=None)
            want = (float(np.linalg.norm(basis @ coeffs)), complex(coeffs[0]), complex(coeffs[1]))
            assert fit_two_component(state, gamma) == want
    # The one cat route gives the bits of the composition it replaced: expand, twist, then fit.
    omegas = [0.0, -0.0, 0.3]
    for gamma in (1j, 0.3 + 0.8j, -1.7 + 0.2j, -0.4 - 2.5j):
        rows = cat_scan([j], omegas, gamma)
        for omega, row, (state, *fit, basis) in zip(omegas, rows, _quarter_period_cats(j, gamma, omegas), strict=True):
            evolved = quarter_period_evolve(coherent_expansion(j, gamma), omega)
            want = fit_two_component(evolved, gamma)
            assert state.amplitudes.tobytes() == evolved.amplitudes.tobytes()
            assert tuple(fit) == want
            # Each item carries the basis the fit read: |j,gamma>, |j,-gamma> as expanded.
            for column, g in zip(basis.T, (gamma, -gamma)):
                assert column.tobytes() == coherent_expansion(j, g).amplitudes.tobytes()
            assert row == CatScanRow(twice_j, omega, *want)


def test_fit_two_component_rejects_degenerate_labels():
    s = weight_state(HalfInteger(2), 0)
    for pole in (0.0, math.inf):
        with pytest.raises(PoleLabel):
            fit_two_component(s, pole)


@pytest.mark.parametrize("twice_j", [4, 40, 400])
def test_a_label_within_rounding_of_a_pole_is_refused(twice_j):
    # There the two components coincide to rounding, lstsq's rank is 1, and
    # its minimum-norm split would read as a fidelity-1 cat with c+ = c-.
    j = HalfInteger(twice_j)
    for gamma in (1e-16, 1e-16j, 1e16, 1e200):
        with pytest.raises(PoleLabel, match="two components differ"):
            fit_two_component(quarter_period_evolve(coherent_expansion(j, gamma)), gamma)
    # Four decades off the pole the fit holds and reads the cat identity's relative phase pi/2 + j pi.
    fid, c_plus, c_minus = fit_two_component(quarter_period_evolve(coherent_expansion(j, 1e-12)), 1e-12)
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert abs(cmath.phase(c_minus / c_plus / cmath.exp(1j * math.pi * (0.5 + twice_j / 2)))) <= 1e-12


def test_cat_scan_reads_one_shot_iterables_once():
    # A generator of omegas is read once, not used up by the first j.
    want = cat_scan([HalfInteger(2), HalfInteger(4)], [0.0, 0.5])
    got = cat_scan((HalfInteger(tj) for tj in (2, 4)), (omega for omega in [0.0, 0.5]))
    assert len(got) == 4 and got == want


def test_cat_scan_half_integer_rows():
    # oracle: project the per-weight phase pattern on the binomial weights;
    # at |gamma| = 1 the components are orthogonal, so the coefficients are
    # plain inner products
    rows = cat_scan([HalfInteger(tj) for tj in (1, 3, 5, 7)], [0.0])
    measured = {r.twice_j: r for r in rows}
    for tj in (1, 3, 5, 7):
        phases = quarter_phase_factors(tj)
        weights_sq = np.abs(coherent_expansion(HalfInteger(tj), 1j).amplitudes) ** 2
        parity = (-1.0) ** np.arange(tj + 1)
        c_plus = np.sum(phases * weights_sq)
        c_minus = np.sum(phases * parity * weights_sq)
        want_fid = math.hypot(abs(c_plus), abs(c_minus))
        row = measured[tj]
        assert row.fidelity == pytest.approx(want_fid, abs=1e-12)
        assert row.coeff_plus == pytest.approx(c_plus, abs=1e-12)
        assert row.coeff_minus == pytest.approx(c_minus, abs=1e-12)
    # frozen values: fidelity halves with each half-integer step
    assert [round(measured[tj].fidelity, 12) for tj in (1, 3, 5, 7)] == [1.0, 0.5, 0.25, 0.125]
    # spin one half: the evolved state is the input up to the global phase
    assert measured[1].coeff_plus == pytest.approx(np.exp(-1j * math.pi / 8), abs=1e-12)
    assert abs(measured[1].coeff_minus) < 1e-12


def test_cat_scan_integer_rows_hit_unity():
    rows = cat_scan([HalfInteger(tj) for tj in (2, 4, 8)], [0.0])
    for r in rows:
        assert r.fidelity >= 1 - 1e-10


def test_rotate_x_half_pi_spin_half_matrix():
    j = HalfInteger(1)
    u = np.column_stack([rotate(weight_state(j, tm), "x", math.pi / 2).amplitudes for tm in (-1, 1)])
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert np.allclose(u, [[c, -1j * s], [-1j * s, c]], atol=1e-15)


def test_rotate_x_half_pi_maps_y_extremes_to_z_extremes():
    for tj in (1, 2, 5, 12):
        j = HalfInteger(tj)
        plus, minus = jy_extremal_states(j)
        assert fidelity(rotate(plus, "x", math.pi / 2), weight_state(j, tj)) > 1 - 1e-12
        assert fidelity(rotate(minus, "x", math.pi / 2), weight_state(j, -tj)) > 1 - 1e-12


def test_rotated_identity_frozen_j1():
    # the final state, written in ascending m: e^{+i pi/4}, 0, e^{-i pi/4}
    # over sqrt(2), up to a global phase
    j = HalfInteger(2)
    hand = np.array([np.exp(1j * math.pi / 4), 0.0, np.exp(-1j * math.pi / 4)]) / math.sqrt(2)
    for final in _rotated_identity_routes(j, 0.0):
        assert abs(np.vdot(hand, final.amplitudes)) > 1 - 1e-12
        assert abs(np.vdot(rotated_cat_prediction(j).amplitudes, final.amplitudes)) > 1 - 1e-12


def test_rotated_cat_prediction_matches_hand_set_amplitudes():
    # The amplitudes the prediction was once written as, entry by entry.
    for jj in range(1, 61):
        j = HalfInteger(2 * jj)
        hand = np.zeros(j.dim, dtype=complex)
        hand[-1] = np.exp(-1j * math.pi / 4) / math.sqrt(2)
        hand[0] = np.exp(1j * math.pi / 4) / math.sqrt(2)
        assert np.max(np.abs(rotated_cat_prediction(j).amplitudes - hand)) <= 1e-13
    with pytest.raises(HalfIntegerUnsupported):
        rotated_cat_prediction(HalfInteger(3))


def test_rotated_cat_labels_land_on_the_poles_exactly():
    # Rotated by -pi/2, twisted, and rotated back by pi/2, the labels are
    # the poles themselves, not labels ~1e-16 off them.
    for jj in (1, 2, 20, 31):
        j = HalfInteger(2 * jj)
        cat = predicted_cat(j, rotate_label(math.inf, "x", -math.pi / 2.0))
        back = [rotate_label(label, "x", math.pi / 2.0) for label, _ in cat.components]
        assert [(lab.u_abs, lab.v_abs) for lab in back] == [(0.0, 1.0), (1.0, 0.0)]
        assert np.flatnonzero(rotated_cat_prediction(j).amplitudes).tolist() == [0, j.dim - 1]


def test_quarter_twist_of_the_pole_is_its_predicted_cat():
    # At the pole both labels give |j,+j>, so the cat is a phase times it.
    for jj in range(1, 21):
        j = HalfInteger(2 * jj)
        twisted = quarter_period_evolve(weight_state(j, 2 * jj)).amplitudes
        predicted = predicted_cat(j, math.inf).materialize().amplitudes
        assert np.max(np.abs(twisted - predicted)) <= 1e-13


@pytest.mark.parametrize("jj", [1, 2, 3, 7, 15])
def test_rotated_identity_both_routes(jj):
    j = HalfInteger(2 * jj)
    direct, conjugated = _rotated_identity_routes(j, 0.0)
    target = rotated_cat_prediction(j)
    assert fidelity(target, direct) >= 1 - 1e-10
    assert fidelity(target, conjugated) >= 1 - 1e-10
    assert fidelity(direct, conjugated) >= 1 - 1e-10


def test_rotated_identity_relative_phase_is_j_independent():
    # lowest over highest weight amplitude = e^{i pi/2} for every integer j
    for jj in (1, 2, 3, 6):
        for final in _rotated_identity_routes(HalfInteger(2 * jj), 0.0):
            ratio = final.amplitudes[0] / final.amplitudes[-1]
            assert np.angle(ratio) == pytest.approx(math.pi / 2, abs=1e-10)


def test_verify_suite_makes_no_dense_exponential(monkeypatch):
    # Both rotated-identity routes are products with Jx's eigenvectors; the
    # dense axis-y twist is only the tests' reference.  Every dense operator
    # the package builds is a SpinOperator, and verify builds none.
    calls = []
    dense = su2.expm_hermitian
    build = su2.SpinOperator.__post_init__

    def counted(h, t):
        calls.append(h.j.twice_value)
        return dense(h, t)

    def built(op):
        calls.append(op.j.twice_value)
        build(op)

    monkeypatch.setattr(su2, "expm_hermitian", counted)
    monkeypatch.setattr(su2.SpinOperator, "__post_init__", built)
    run_suite(60)
    assert calls == []


def test_rotated_identity_gates():
    with pytest.raises(HalfIntegerUnsupported):
        rotated_cat_prediction(HalfInteger(3))
    j = HalfInteger(6)
    direct, _ = _rotated_identity_routes(j, 2.0 / 3.0)
    assert fidelity(rotated_cat_prediction(j), direct) >= 1 - 1e-10
