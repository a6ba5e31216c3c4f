"""Two-mode Fock realization of the spin algebra, the N00N pipeline, and
`noon_state`, the one builder of the ideal N00N probe.

Every operator in play conserves the total photon number, so the two-mode
space is built only on the fixed-N sector (dimension N + 1, amplitudes
indexed by n_a = 0..N with n_b = N - n_a).  The weight basis of spin
j = N/2 maps onto that sector by |j,m>_z = |j+m>_a (x) |j-m>_b, which with
ascending m ordering is the identity permutation on amplitude arrays; the
mode operators there are checked by `verify.verify_schwinger_realization`.

Photon numbers go through `errors._size`, the package's one size rule:
`InvalidN` for the ideal probe or the pipeline, ValueError for a two-mode
state (which admits N = 0); N00N phases go through `errors._finite`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import coherent_expansion
from .dynamics import quarter_period_evolve
from .errors import InvalidN, _choice, _finite, _size
from .halfint import HalfInteger
from .su2 import SpinState, _unit_vector, rotate


@dataclass(frozen=True)
class TwoModeState:
    """Unit amplitude vector over |n_a> (x) |N - n_a>, n_a = 0..N."""

    n_total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_total", _size(self.n_total, 0, ValueError, "n_total"))
        object.__setattr__(self, "amplitudes", _unit_vector(self.amplitudes, self.n_total + 1))


def noon_state(n_total: int, phase_phi: float = 0.0) -> TwoModeState:
    """The ideal N00N probe (e^{-i phi} |N,0> + e^{i phi} |0,N>) / sqrt(2).

    Raises InvalidN unless N is an int >= 1, and ValueError for a phase_phi
    that is not a finite real.
    """
    n_total = _size(n_total, 1, InvalidN, "N")
    _finite(phase_phi, ValueError, "phase_phi")
    amps = np.zeros(n_total + 1, dtype=np.complex128)
    amps[-1] = np.exp(-1j * phase_phi) / math.sqrt(2.0)
    amps[0] = np.exp(1j * phase_phi) / math.sqrt(2.0)
    return TwoModeState(n_total, amps)


def spin_to_fock(state: SpinState) -> TwoModeState:
    """Relabel |j,m>_z amplitudes as the fixed-N two-mode sector, N = 2j."""
    return TwoModeState(state.j.twice_value, state.amplitudes)


def fock_to_spin(state: TwoModeState) -> SpinState:
    """Inverse of spin_to_fock; exact, a pure relabeling."""
    return SpinState(HalfInteger(state.n_total), state.amplitudes)


def make_noon(n_total: int, omega: float = 0.0, gamma_choice: str = "i") -> TwoModeState:
    """Run the full pipeline: coherent state, quarter-period twist, pi/2
    rotation, Fock relabeling.

    gamma_choice 'i' starts from |j,i> and finishes with the x rotation;
    gamma_choice '1' starts from |j,1> and finishes with the y rotation.
    Even N is guaranteed to reach an exact N00N state (when the linear
    phase clears); odd N runs as an exploratory case and is simply
    measured by `noon_fidelity`.
    """
    n_total = _size(n_total, 1, InvalidN, "N")
    _choice(gamma_choice, ("i", "1"), "gamma_choice")
    j = HalfInteger(n_total)
    gamma, axis = (1j, "x") if gamma_choice == "i" else (1.0, "y")
    evolved = quarter_period_evolve(coherent_expansion(j, gamma), omega)
    return spin_to_fock(rotate(evolved, axis, math.pi / 2.0))


def noon_fidelity(state: TwoModeState) -> tuple[float, float]:
    """Best fidelity against the N00N family, maximized over its phase.

    Returns (fidelity, best_phi) with best_phi in [0, pi); the N00N phase
    is only defined modulo pi because phi -> phi + pi is a global sign.
    Raises InvalidN for N = 0.
    """
    _size(state.n_total, 1, InvalidN, "N")
    top = state.amplitudes[-1]
    bottom = state.amplitudes[0]
    fid = (abs(top) + abs(bottom)) / math.sqrt(2.0)
    best = ((np.angle(bottom) - np.angle(top)) / 2.0) % math.pi
    return float(fid), float(best)


def off_support_mass(state: TwoModeState) -> float:
    """Probability mass outside the two extremal occupations."""
    return float(np.sum(np.abs(state.amplitudes[1:-1]) ** 2))
