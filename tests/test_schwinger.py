import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincat import (
    HalfInteger,
    InvalidN,
    TwoModeState,
    coherent_expansion,
    fock_to_spin,
    make_noon,
    noon_fidelity,
    noon_state,
    off_support_mass,
    scaling_table,
    spin_to_fock,
    verify_schwinger_realization,
    weight_state,
)
from spincat.verify import _sector_bands


def test_extremal_weights_map_to_single_mode_occupations():
    j = HalfInteger(4)  # j = 2, N = 4
    top = spin_to_fock(weight_state(j, 4))
    assert top.n_total == 4
    assert top.amplitudes[4] == 1.0 and np.count_nonzero(top.amplitudes) == 1
    bottom = spin_to_fock(weight_state(j, -4))
    assert bottom.amplitudes[0] == 1.0 and np.count_nonzero(bottom.amplitudes) == 1
    # |j=1, m=0> sits at one photon in each arm
    mid = spin_to_fock(weight_state(HalfInteger(2), 0))
    assert mid.amplitudes[1] == 1.0


def test_fock_to_spin_special_cases():
    two = TwoModeState(2, [0, 0, 1])
    back = fock_to_spin(two)
    assert back.j.twice_value == 2 and back.amplitudes[2] == 1.0
    two = TwoModeState(2, [1, 0, 0])
    assert fock_to_spin(two).amplitudes[0] == 1.0


@given(st.integers(min_value=0, max_value=24), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_round_trip_is_bit_exact(tj, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=tj + 1) + 1j * rng.normal(size=tj + 1)
    vec /= np.linalg.norm(vec)
    from spincat import SpinState

    state = SpinState(HalfInteger(tj), vec)
    back = fock_to_spin(spin_to_fock(state))
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()


def test_mode_operator_elements():
    # oracle: raw sqrt((n_a+1) n_b) ladder weights, looped
    n = 6
    num_a, num_b, lower = _sector_bands(n)
    for n_a in range(n):
        assert lower[n_a] == pytest.approx(math.sqrt((n_a + 1) * (n - n_a)))
    assert np.array_equal(num_a, np.arange(n + 1))
    assert np.array_equal(num_b, n - np.arange(n + 1))


@pytest.mark.parametrize("tj", [0, 1, 2, 5, 10, 23, 40])
def test_schwinger_residuals(tj):
    assert verify_schwinger_realization(HalfInteger(tj)) <= 1e-12


def test_make_noon_even_matches_extremal_superposition():
    out = make_noon(2)
    fid, best_phi = noon_fidelity(out)
    assert fid >= 1 - 1e-12
    # componentwise: e^{-i pi/4}/sqrt2 on |2,0> and -e^{i pi/4}/sqrt2 on
    # |0,2>, up to a global phase
    want = np.zeros(3, dtype=complex)
    want[2] = np.exp(-1j * math.pi / 4) / math.sqrt(2)
    want[0] = -np.exp(1j * math.pi / 4) / math.sqrt(2)
    assert abs(np.vdot(want, out.amplitudes)) > 1 - 1e-12


def test_make_noon_relative_phase_frozen():
    # arg(amp[N] / amp[0]) = +pi/2 for every even N under this package's
    # conventions (the equal-weight N00N content is what matters; the
    # assignment of the two quarter phases rides on the Jy pairing)
    for n in (2, 4, 6, 10, 16):
        out = make_noon(n)
        ratio = out.amplitudes[-1] / out.amplitudes[0]
        assert np.angle(ratio) == pytest.approx(math.pi / 2, abs=1e-8)


@pytest.mark.parametrize("n", [2, 8, 20, 34, 1000])
def test_make_noon_even_fidelity_and_support(n):
    out = make_noon(n)
    fid, _ = noon_fidelity(out)
    assert fid >= 1 - 1e-10
    assert off_support_mass(out) <= 1e-20


@pytest.mark.parametrize("n", [2, 8, 20, 1000])
def test_make_noon_gamma_one_variant(n):
    out = make_noon(n, gamma_choice="1")
    fid, _ = noon_fidelity(out)
    assert fid >= 1 - 1e-10
    assert off_support_mass(out) <= 1e-20


@pytest.mark.parametrize("choice", ["i", "1"])
def test_noon_deficit_is_linear_in_n(choice):
    # the accuracy contract as a function of N; the worst measured
    # deficit / N on this grid is about 4e-17
    for n in [*range(2, 201, 2), 400, 998, 1000]:
        fid, _ = noon_fidelity(make_noon(n, gamma_choice=choice))
        assert 1.0 - fid <= 1e-15 * n, n


def test_make_noon_odd_is_exploratory():
    # measured, not asserted: the odd pipeline lands far from the N00N
    # family, fidelity 2^{-N/2} at omega = 0
    for n in (1, 3, 5):
        fid, _ = noon_fidelity(make_noon(n))
        assert fid == pytest.approx(2.0 ** (-n / 2), abs=1e-9)


def test_make_noon_validation():
    with pytest.raises(InvalidN):
        make_noon(0)
    with pytest.raises(InvalidN):
        make_noon(-3)
    with pytest.raises(ValueError):
        make_noon(2, gamma_choice="q")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: TwoModeState(True, [1, 0]), ValueError),
        (lambda: noon_state(True), InvalidN),
        (lambda: make_noon(True), InvalidN),
        (lambda: scaling_table([noon_state(True)]), InvalidN),
        (lambda: scaling_table([noon_state(2.7)]), InvalidN),
    ],
    ids=["TwoModeState", "noon_state", "make_noon", "scaling_table-bool", "scaling_table-float"],
)
def test_bool_size_is_refused(build, error):
    with pytest.raises(error):
        build()


def test_noon_state_materializes_the_invariant():
    s = noon_state(5, 0.3)
    assert abs(s.amplitudes[5]) == pytest.approx(1 / math.sqrt(2))
    assert abs(s.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
    assert off_support_mass(s) == 0.0
    assert s.amplitudes[5] == pytest.approx(np.exp(-0.3j) / math.sqrt(2))
    with pytest.raises(InvalidN):
        noon_state(0)


def test_noon_fidelity_examples():
    fid, best = noon_fidelity(noon_state(7, 0.9))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert best == pytest.approx(0.9, abs=1e-12)
    # phase is only defined mod pi
    fid, best = noon_fidelity(noon_state(7, 0.9 + math.pi))
    assert best == pytest.approx(0.9, abs=1e-12)
    # single-arm Fock probe covers half the support
    single = np.zeros(8, dtype=complex)
    single[7] = 1.0
    fid, _ = noon_fidelity(TwoModeState(7, single))
    assert fid == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_total_photon_number_is_conserved():
    # the pipeline never leaves the fixed-N sector by construction; check
    # the resulting array length and norm explicitly
    for n in (3, 6):
        out = make_noon(n)
        assert out.n_total == n
        assert len(out.amplitudes) == n + 1
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_pipeline_equals_spin_side_composition():
    # spin_to_fock is a relabeling: undoing it must reproduce the spin-side
    # pipeline state exactly
    from spincat import quarter_period_evolve, rotate

    n = 6
    j = HalfInteger(n)
    spin_final = rotate(quarter_period_evolve(coherent_expansion(j, 1j)), "x", math.pi / 2)
    assert np.array_equal(fock_to_spin(make_noon(n)).amplitudes, spin_final.amplitudes)
