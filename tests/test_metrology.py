import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    apply_phase_shift,
    binomial_probe_amplitudes,
    extreme_coherence_matrix,
    noon_sweep,
    steepest_point_uncertainty,
)
from spincat import (
    TwoModeState,
    error_propagation_uncertainty,
    make_noon,
    noon_signal,
    noon_state,
    quantum_fisher_information,
    scaling_table,
)


def test_phase_shift_identity_at_zero():
    s = noon_state(4, 0.2)
    assert np.array_equal(apply_phase_shift(s, 0.0).amplitudes, s.amplitudes)


@given(st.integers(1, 20), st.floats(-10, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_phase_shift_preserves_norm(n, phi, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    vec /= np.linalg.norm(vec)
    out = apply_phase_shift(TwoModeState(n, vec), phi)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(out.amplitudes), np.abs(vec), atol=1e-15)


def test_phase_shift_advances_noon_relative_phase_n_fold():
    n, phi = 6, 0.23
    s = noon_state(n, 0.0)
    out = apply_phase_shift(s, phi)
    before = np.angle(s.amplitudes[-1] / s.amplitudes[0])
    after = np.angle(out.amplitudes[-1] / out.amplitudes[0])
    assert math.remainder(after - before + n * phi, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_signal_is_cosine_with_frozen_convention():
    # <A> = cos(N phi + 2 phi0); the zero offset is this package's frozen
    # convention constant
    for n, phi0 in ((1, 0.0), (3, 0.3), (10, -0.7)):
        for phi in np.linspace(0, 2 * math.pi, 19):
            assert noon_signal(noon_state(n, phi0), phi) == pytest.approx(
                math.cos(n * phi + 2 * phi0), abs=1e-12
            )


def test_signal_matches_matrix_observable():
    # oracle: build A = |N,0><0,N| + h.c. explicitly and take <psi|A|psi>
    n, phi0 = 5, 0.4
    a_mat = extreme_coherence_matrix(n)
    for phi in (0.0, 0.31, 2.2):
        shifted = apply_phase_shift(noon_state(n, phi0), phi)
        want = np.vdot(shifted.amplitudes, a_mat @ shifted.amplitudes).real
        assert noon_signal(noon_state(n, phi0), phi) == pytest.approx(want, abs=1e-13)


def test_signal_fringe_period():
    for n in (1, 10):
        phis = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        samples = noon_signal(noon_state(n, 0.0), phis)
        spectrum = np.abs(np.fft.rfft(samples))
        spectrum[0] = 0.0
        assert int(np.argmax(spectrum)) == n
        assert np.max(np.abs(samples)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 1000])
def test_signal_over_phase_array_matches_scalar_and_state_routes(n):
    rng = np.random.default_rng(n)
    phi0 = float(rng.uniform(-math.pi, math.pi))
    phis = np.concatenate(([0.0, -50.0, 50.0], rng.uniform(-50.0, 50.0, 254)))
    got = noon_signal(noon_state(n, phi0), phis)
    assert isinstance(got, np.ndarray) and got.shape == phis.shape
    scalar = np.array([noon_signal(noon_state(n, phi0), float(p)) for p in phis])
    assert np.max(np.abs(got - scalar)) <= 1e-15
    # cos(N phi + 2 phi0) in angle-sum form: rounding N phi + 2 phi0 itself
    # would cost up to 3.6e-12 once |N phi| reaches 5e4
    n_phi = n * phis
    closed = np.cos(n_phi) * math.cos(2 * phi0) - np.sin(n_phi) * math.sin(2 * phi0)
    assert np.max(np.abs(got - closed)) <= 1e-12
    if n <= 60:
        a_mat = extreme_coherence_matrix(n)
        probe = noon_state(n, phi0)
        shifted = [apply_phase_shift(probe, p).amplitudes for p in phis]
        want = np.array([np.vdot(s, a_mat @ s).real for s in shifted])
        assert np.max(np.abs(got - want)) <= 1e-13
    assert type(noon_signal(noon_state(n, phi0), 0.3)) is float
    assert noon_signal(noon_state(n, phi0), phis[:6].reshape(2, 3)).shape == (2, 3)


def test_phase_uncertainty_frozen_values():
    assert error_propagation_uncertainty(noon_state(1)) == pytest.approx(1.0, abs=1e-12)
    assert error_propagation_uncertainty(noon_state(2)) == pytest.approx(0.5, abs=1e-12)
    assert error_propagation_uncertainty(noon_state(10)) == pytest.approx(0.1, abs=1e-12)


def test_phase_uncertainty_matches_finite_difference_oracle():
    # oracle: sweep phi on a fine grid, measure Delta A / |slope| from the
    # explicit observable matrix and centered differences at the steepest
    # operating point
    n = 7
    a_mat = extreme_coherence_matrix(n)
    probe = noon_state(n, 0.0)
    phis = np.linspace(0, 2 * math.pi / n, 4001)
    means = np.array(
        [
            np.vdot(apply_phase_shift(probe, p).amplitudes, a_mat @ apply_phase_shift(probe, p).amplitudes).real
            for p in phis
        ]
    )
    slopes = np.gradient(means, phis)
    idx = int(np.argmax(np.abs(slopes)))
    shifted = apply_phase_shift(probe, phis[idx])
    mean_sq = np.vdot(shifted.amplitudes, a_mat @ a_mat @ shifted.amplitudes).real
    delta_a = math.sqrt(mean_sq - means[idx] ** 2)
    oracle = delta_a / abs(slopes[idx])
    assert error_propagation_uncertainty(noon_state(n)) == pytest.approx(oracle, rel=1e-6)
    assert error_propagation_uncertainty(noon_state(n)) == pytest.approx(1.0 / n, abs=1e-12)


def test_error_propagation_rejects_flat_fringe():
    single = np.zeros(5, dtype=complex)
    single[4] = 1.0
    with pytest.raises(ValueError):
        error_propagation_uncertainty(TwoModeState(4, single))
    # One extreme of the odd-N pipeline state is a ~2e-16 rounding residue, not a
    # fringe; from N = 49 on the other extreme is small too (9.3e-10 at N = 61, and
    # both ~1e-15 at N = 101), so only a bound on N delta_phi itself refuses them.
    for n in (3, 5, 7, 49, 61, 101, 129):
        with pytest.raises(ValueError):
            error_propagation_uncertainty(make_noon(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Both extremes zero: 0 >= 0 still refuses, where a strict rule would return nan.
        with pytest.raises(ValueError):
            error_propagation_uncertainty(TwoModeState(2, [0, 1, 0]))


def test_error_propagation_keeps_a_noon_fringe():
    for probe in (*(noon_state(n, 0.3) for n in range(1, 12)), make_noon(4)):
        assert error_propagation_uncertainty(probe) * probe.n_total == pytest.approx(1.0, abs=1e-12), probe.n_total


@given(st.integers(1, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_error_propagation_matches_matrix_oracle_on_general_states(n, seed):
    # Random interior amplitudes; each extreme at least 0.1 in modulus before
    # normalizing, so the fringe is far from flat.
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    vec[[0, -1]] = rng.uniform(0.1, 1.0, 2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
    probe = TwoModeState(n, vec / np.linalg.norm(vec))
    assert error_propagation_uncertainty(probe) == pytest.approx(steepest_point_uncertainty(probe), rel=1e-6)


def test_qfi_examples():
    assert quantum_fisher_information(noon_state(10)) == pytest.approx(100.0, abs=1e-10)
    single = np.zeros(11, dtype=complex)
    single[10] = 1.0
    assert quantum_fisher_information(TwoModeState(10, single)) == pytest.approx(0.0, abs=1e-12)
    # 50/50 binomial probe sits at the shot-noise scaling, QFI = N
    assert quantum_fisher_information(TwoModeState(10, binomial_probe_amplitudes(10))) == pytest.approx(
        10.0, abs=1e-10
    )


@given(st.integers(1, 60))
@settings(max_examples=40)
def test_cramer_rao_consistency(n):
    bound = 1.0 / math.sqrt(quantum_fisher_information(noon_state(n)))
    assert error_propagation_uncertainty(noon_state(n)) >= bound - 1e-9


def test_scaling_table_takes_numpy_ints_and_reports_the_probe_n():
    (row,) = scaling_table([noon_state(n) for n in [np.int64(4)]])
    assert type(row.n_total) is int and row == scaling_table([noon_state(n) for n in [4]])[0]


def test_scaling_table_frozen_rows():
    rows = {r.n_total: r for r in scaling_table([noon_state(n) for n in [4, 16, 64]])}
    assert rows[4].delta_phi_noon == pytest.approx(0.25, abs=1e-12)
    assert rows[4].delta_phi_sql_reference == pytest.approx(0.5, abs=1e-15)
    assert rows[16].delta_phi_noon == pytest.approx(0.0625, abs=1e-12)
    assert rows[16].delta_phi_sql_reference == pytest.approx(0.25, abs=1e-15)
    assert rows[64].delta_phi_noon == pytest.approx(0.015625, abs=1e-12)
    assert rows[64].delta_phi_sql_reference == pytest.approx(0.125, abs=1e-15)
    assert rows[16].qfi == pytest.approx(256.0, abs=1e-9)


@pytest.mark.parametrize("choice", ["i", "1"])
def test_signal_of_the_pipeline_state_is_the_ideal_probe_fringe_at_its_phase(choice):
    # Metrology reads the state it is handed: make_noon's own output gives the
    # fringe of the ideal probe at noon_fidelity's best phase.  Worst seen: 2.0e-14.
    rng = np.random.default_rng(27)
    phis = np.concatenate(([0.0, -50.0, 50.0], rng.uniform(-50.0, 50.0, 254)))
    for n, state, _, best_phi in noon_sweep(choice):
        worst = np.max(np.abs(noon_signal(state, phis) - noon_signal(noon_state(n, best_phi), phis)))
        assert worst <= 1e-12, (n, worst)
