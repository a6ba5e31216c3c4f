import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import apply_phase_shift, binomial_probe_amplitudes, extreme_coherence_matrix
from spincat import (
    NoonState,
    TwoModeState,
    noon_signal,
    phase_uncertainty,
    quantum_fisher_information,
    scaling_table,
)
from spincat.metrology import error_propagation_uncertainty


def test_phase_shift_identity_at_zero():
    s = NoonState(4, 0.2).to_two_mode()
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
    s = NoonState(n, 0.0).to_two_mode()
    out = apply_phase_shift(s, phi)
    before = np.angle(s.amplitudes[-1] / s.amplitudes[0])
    after = np.angle(out.amplitudes[-1] / out.amplitudes[0])
    assert math.remainder(after - before + n * phi, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_signal_is_cosine_with_frozen_convention():
    # <A> = cos(N phi + 2 phi0); the zero offset is this package's frozen
    # convention constant
    for n, phi0 in ((1, 0.0), (3, 0.3), (10, -0.7)):
        for phi in np.linspace(0, 2 * math.pi, 19):
            assert noon_signal(n, phi0, phi) == pytest.approx(
                math.cos(n * phi + 2 * phi0), abs=1e-12
            )


def test_signal_matches_matrix_observable():
    # oracle: build A = |N,0><0,N| + h.c. explicitly and take <psi|A|psi>
    n, phi0 = 5, 0.4
    a_mat = extreme_coherence_matrix(n)
    for phi in (0.0, 0.31, 2.2):
        shifted = apply_phase_shift(NoonState(n, phi0).to_two_mode(), phi)
        want = np.vdot(shifted.amplitudes, a_mat @ shifted.amplitudes).real
        assert noon_signal(n, phi0, phi) == pytest.approx(want, abs=1e-13)


def test_signal_fringe_period():
    for n in (1, 10):
        phis = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        samples = noon_signal(n, 0.0, phis)
        spectrum = np.abs(np.fft.rfft(samples))
        spectrum[0] = 0.0
        assert int(np.argmax(spectrum)) == n
        assert np.max(np.abs(samples)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 1000])
def test_signal_over_phase_array_matches_scalar_and_state_routes(n):
    rng = np.random.default_rng(n)
    phi0 = float(rng.uniform(-math.pi, math.pi))
    phis = np.concatenate(([0.0, -50.0, 50.0], rng.uniform(-50.0, 50.0, 254)))
    got = noon_signal(n, phi0, phis)
    assert isinstance(got, np.ndarray) and got.shape == phis.shape
    scalar = np.array([noon_signal(n, phi0, float(p)) for p in phis])
    assert np.max(np.abs(got - scalar)) <= 1e-15
    # cos(N phi + 2 phi0) in angle-sum form: rounding N phi + 2 phi0 itself
    # would cost up to 3.6e-12 once |N phi| reaches 5e4
    n_phi = n * phis
    closed = np.cos(n_phi) * math.cos(2 * phi0) - np.sin(n_phi) * math.sin(2 * phi0)
    assert np.max(np.abs(got - closed)) <= 1e-12
    if n <= 60:
        a_mat = extreme_coherence_matrix(n)
        probe = NoonState(n, phi0).to_two_mode()
        shifted = [apply_phase_shift(probe, p).amplitudes for p in phis]
        want = np.array([np.vdot(s, a_mat @ s).real for s in shifted])
        assert np.max(np.abs(got - want)) <= 1e-13
    assert type(noon_signal(n, phi0, 0.3)) is float
    assert noon_signal(n, phi0, phis[:6].reshape(2, 3)).shape == (2, 3)


@pytest.mark.parametrize(
    "phi", [math.nan, math.inf, -math.inf, np.array([0.0, 1.0, math.nan])], ids=["nan", "inf", "-inf", "array"]
)
def test_signal_rejects_non_finite_phase(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            noon_signal(4, 0.0, phi)


def test_phase_uncertainty_frozen_values():
    assert phase_uncertainty(1) == pytest.approx(1.0, abs=1e-12)
    assert phase_uncertainty(2) == pytest.approx(0.5, abs=1e-12)
    assert phase_uncertainty(10) == pytest.approx(0.1, abs=1e-12)


def test_phase_uncertainty_matches_finite_difference_oracle():
    # oracle: sweep phi on a fine grid, measure Delta A / |slope| from the
    # explicit observable matrix and centered differences at the steepest
    # operating point
    n = 7
    a_mat = extreme_coherence_matrix(n)
    probe = NoonState(n, 0.0).to_two_mode()
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
    assert phase_uncertainty(n) == pytest.approx(oracle, rel=1e-6)
    assert phase_uncertainty(n) == pytest.approx(1.0 / n, abs=1e-12)


@given(st.integers(1, 100))
@settings(max_examples=60)
def test_phase_uncertainty_scales_inverse_n(n):
    assert phase_uncertainty(n) * n == pytest.approx(1.0, abs=1e-9)


def test_error_propagation_rejects_flat_fringe():
    single = np.zeros(5, dtype=complex)
    single[4] = 1.0
    with pytest.raises(ValueError):
        error_propagation_uncertainty(TwoModeState(4, single))


def test_qfi_examples():
    assert quantum_fisher_information(NoonState(10).to_two_mode()) == pytest.approx(100.0, abs=1e-10)
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
    bound = 1.0 / math.sqrt(quantum_fisher_information(NoonState(n).to_two_mode()))
    assert phase_uncertainty(n) >= bound - 1e-9


def test_scaling_table_frozen_rows():
    rows = {r.n_total: r for r in scaling_table([4, 16, 64])}
    assert rows[4].delta_phi_noon == pytest.approx(0.25, abs=1e-12)
    assert rows[4].delta_phi_sql_reference == pytest.approx(0.5, abs=1e-15)
    assert rows[16].delta_phi_noon == pytest.approx(0.0625, abs=1e-12)
    assert rows[16].delta_phi_sql_reference == pytest.approx(0.25, abs=1e-15)
    assert rows[64].delta_phi_noon == pytest.approx(0.015625, abs=1e-12)
    assert rows[64].delta_phi_sql_reference == pytest.approx(0.125, abs=1e-15)
    assert rows[16].qfi == pytest.approx(256.0, abs=1e-9)
