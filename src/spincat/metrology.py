"""Phase estimation with N00N probes: signal, uncertainty, Fisher information.

The phase shift acts on one arm, multiplying the n_a amplitude by
e^{-i n_a phi}.  The measured observable is the extreme-component
coherence A = |N,0><0,N| + h.c., whose expectation on a shifted N00N
probe is cos(N phi + 2 phi0); error propagation on A at the steepest
point of that fringe gives delta phi = 1/N exactly.  A reads only the
n_a = 0 and n_a = N amplitudes, so its moments are taken from those two
numbers and broadcast over an array of phases without building a shifted
state.  Everything here is expectation-level, no sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schwinger import NoonState, TwoModeState


def _coherence_moments(state: TwoModeState, phi: float | np.ndarray) -> tuple:
    """(<A>, <A^2>, d<A>/dphi) for A = |N,0><0,N| + h.c. after a shift by phi.

    The shift multiplies the n_a = N amplitude by e^{-i N phi} and leaves
    n_a = 0 alone, and A reads only those two, so no shifted state is
    built.  phi is a float or an array; each moment broadcasts over it.
    Raises ValueError if any phi is not finite.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phase shift has non-finite entries")
    n = state.n_total
    top = state.amplitudes[-1] * np.exp(-1j * phi * n)
    bottom = state.amplitudes[0]
    cross = np.conj(top) * bottom
    mean = 2.0 * cross.real
    mean_sq = abs(top) ** 2 + abs(bottom) ** 2  # A^2 projects onto the extremes
    slope = -2.0 * n * cross.imag
    return mean, mean_sq, slope


def noon_signal(n_total: int, phi0: float, phi: float | np.ndarray) -> float | np.ndarray:
    """<A> on NoonState(n_total, phi0) after a shift by phi; cos(N phi + 2 phi0).

    A float phi gives a float; an array gives an array of its shape.
    """
    mean, _, _ = _coherence_moments(NoonState(n_total, phi0).to_two_mode(), phi)
    return float(mean) if np.ndim(mean) == 0 else mean


def error_propagation_uncertainty(state: TwoModeState) -> float:
    """delta A / |d<A>/dphi| at the steepest-slope operating point."""
    n = state.n_total
    cross = np.conj(state.amplitudes[-1]) * state.amplitudes[0]
    if abs(cross) == 0.0:
        raise ValueError("no extreme-component coherence; the fringe is flat")
    # steepest slope sits where <A> crosses zero
    phi_star = (math.pi / 2.0 - np.angle(cross)) / n
    mean, mean_sq, slope = (float(v) for v in _coherence_moments(state, phi_star))
    return math.sqrt(mean_sq - mean**2) / abs(slope)


def phase_uncertainty(n_total: int) -> float:
    """Phase uncertainty of the exact N-photon N00N probe; equals 1/N."""
    return error_propagation_uncertainty(NoonState(n_total, 0.0).to_two_mode())


def quantum_fisher_information(state: TwoModeState) -> float:
    """4 * Var(n_a) on a pure probe; the Cramer-Rao bound is 1/sqrt(QFI)."""
    n_a = np.arange(state.n_total + 1)
    probs = np.abs(state.amplitudes) ** 2
    mean = float(np.dot(probs, n_a))
    mean_sq = float(np.dot(probs, n_a.astype(float) ** 2))
    return 4.0 * (mean_sq - mean**2)


@dataclass(frozen=True)
class ScalingRow:
    n_total: int
    delta_phi_noon: float
    delta_phi_sql_reference: float
    qfi: float


def scaling_table(n_list) -> list[ScalingRow]:
    """1/N versus the 1/sqrt(N) shot-noise reference, plus the probe QFI."""
    rows = []
    for n in n_list:
        rows.append(
            ScalingRow(
                n_total=int(n),
                delta_phi_noon=phase_uncertainty(int(n)),
                delta_phi_sql_reference=1.0 / math.sqrt(n),
                qfi=quantum_fisher_information(NoonState(int(n), 0.0).to_two_mode()),
            )
        )
    return rows

