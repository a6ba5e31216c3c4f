"""Phase estimation with N00N probes: signal, uncertainty, Fisher information.

The phase shift acts on one arm, multiplying the n_a amplitude by
e^{-i n_a phi}.  The measured observable is the extreme-component
coherence A = |N,0><0,N| + h.c., whose expectation on a shifted N00N
probe is cos(N phi + 2 phi0).  A reads only the n_a = 0 and n_a = N
amplitudes, bottom and top, so the signal is taken from those two numbers
and broadcast over an array of phases without building a shifted state.

Where the fringe is steepest, <A> = 0, <A^2> = |top|^2 + |bottom|^2 and
|d<A>/dphi| = 2N |top| |bottom|, so error propagation on A has the closed
form N delta_phi = sqrt(|top|^2 + |bottom|^2) / (2 |top| |bottom|), which
is 1 on a N00N probe.  One rule refuses a flat fringe: N delta_phi >= 5e7.
Everything here is expectation-level, no sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidN, _finite, _size
from .schwinger import NoonState, TwoModeState


def noon_signal(n_total: int, phi0: float, phi: float | np.ndarray) -> float | np.ndarray:
    """<A> on NoonState(n_total, phi0) after a shift by phi; cos(N phi + 2 phi0).

    A float phi gives a float; an array gives an array of its shape.
    Raises ValueError if any phi is not a finite real.
    """
    probe = NoonState(n_total, phi0).to_two_mode()
    phi = np.asarray(_finite(phi, ValueError, "phase shift"), dtype=float)
    # the shift turns top into top e^{-i N phi} and leaves bottom alone
    top = probe.amplitudes[-1] * np.exp(-1j * phi * probe.n_total)
    mean = 2.0 * (np.conj(top) * probe.amplitudes[0]).real
    return float(mean) if np.ndim(mean) == 0 else mean


def error_propagation_uncertainty(state: TwoModeState) -> float:
    """delta A / |d<A>/dphi| where the fringe is steepest, in closed form.

    N delta_phi = sqrt(|top|^2 + |bottom|^2) / (2 |top| |bottom|).
    Raises InvalidN for N = 0, and ValueError for a flat fringe,
    N delta_phi >= 5e7: a zero extreme, or the ~1e-16 rounding residue one
    extreme of the odd-N pipeline state holds.
    """
    n = _size(state.n_total, 1, InvalidN, "N")
    top, bottom = abs(state.amplitudes[-1]), abs(state.amplitudes[0])
    spread = math.sqrt(top**2 + bottom**2)
    if spread >= 1e8 * top * bottom:
        raise ValueError("the fringe is flat: N delta_phi is at least 5e7")
    return float(spread / (2.0 * top * bottom * n))


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
    """1/N versus the 1/sqrt(N) shot-noise reference, plus the probe QFI.

    Each N goes to `NoonState` as given, so it is refused by the package's
    one size rule (`InvalidN` for a bool, a float or N < 1).
    """
    probes = [NoonState(n, 0.0).to_two_mode() for n in n_list]
    return [
        ScalingRow(p.n_total, error_propagation_uncertainty(p), 1.0 / math.sqrt(p.n_total), quantum_fisher_information(p))
        for p in probes
    ]
