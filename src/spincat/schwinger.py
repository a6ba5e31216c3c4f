"""Two-mode Fock realization of the spin algebra and the N00N pipeline.

Every operator in play conserves the total photon number, so the two-mode
space is built only on the fixed-N sector (dimension N + 1, amplitudes
indexed by n_a = 0..N with n_b = N - n_a).  The weight basis of spin
j = N/2 maps onto that sector by |j,m>_z = |j+m>_a (x) |j-m>_b, which with
ascending m ordering is the identity permutation on amplitude arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .coherent import coherent_expansion
from .dynamics import KerrHamiltonianSpec, quarter_period_evolve, rotate_x_quarter
from .errors import InvalidN
from .halfint import HalfInteger
from .su2 import SpinState, _unit_vector, expm_hermitian, jminus, jplus, jy, jz


@dataclass(frozen=True)
class TwoModeState:
    """Unit amplitude vector over |n_a> (x) |N - n_a>, n_a = 0..N."""

    n_total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n_total, Integral) or self.n_total < 0:
            raise ValueError(f"n_total must be a non-negative integer, got {self.n_total!r}")
        object.__setattr__(self, "n_total", int(self.n_total))
        object.__setattr__(self, "amplitudes", _unit_vector(self.amplitudes, self.n_total + 1))


@dataclass(frozen=True)
class NoonState:
    """(e^{-i phi} |N,0> + e^{i phi} |0,N>) / sqrt(2)."""

    n_total: int
    phase_phi: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_total, Integral) or self.n_total < 1:
            raise InvalidN(f"N must be a positive integer, got {self.n_total!r}")
        object.__setattr__(self, "n_total", int(self.n_total))

    def to_two_mode(self) -> TwoModeState:
        amps = np.zeros(self.n_total + 1, dtype=np.complex128)
        amps[-1] = np.exp(-1j * self.phase_phi) / math.sqrt(2.0)
        amps[0] = np.exp(1j * self.phase_phi) / math.sqrt(2.0)
        return TwoModeState(self.n_total, amps)


def spin_to_fock(state: SpinState) -> TwoModeState:
    """Relabel |j,m>_z amplitudes as the fixed-N two-mode sector, N = 2j."""
    return TwoModeState(state.j.twice_value, state.amplitudes)


def fock_to_spin(state: TwoModeState) -> SpinState:
    """Inverse of spin_to_fock; exact, a pure relabeling."""
    return SpinState(HalfInteger(state.n_total), state.amplitudes)


def sector_mode_operators(n_total: int) -> dict[str, np.ndarray]:
    """Bilinear mode operators restricted to the N-photon sector.

    Keys: 'adag_b' (raises n_a), 'a_bdag' (lowers n_a), 'num_a', 'num_b'.
    """
    if n_total < 0:
        raise ValueError("n_total must be >= 0")
    n_a = np.arange(n_total + 1, dtype=float)
    n_b = n_total - n_a
    lower = np.sqrt((n_a[:-1] + 1.0) * n_b[:-1])  # entry for n_a -> n_a + 1
    return {
        "adag_b": np.diag(lower, k=-1).astype(np.complex128),
        "a_bdag": np.diag(lower, k=1).astype(np.complex128),
        "num_a": np.diag(n_a).astype(np.complex128),
        "num_b": np.diag(n_b).astype(np.complex128),
    }


def verify_schwinger_realization(j: HalfInteger) -> float:
    """Largest residual between the mode-built and ladder-built generators.

    Builds J+ = a^dag b, J- = a b^dag, Jz = (n_a - n_b)/2 and
    J0 = (n_a + n_b)/2 on the N = 2j sector, maps them through the
    weight <-> Fock relabeling, and compares against the direct spin
    matrices; also checks J^2 = J0(J0 + 1) and J0 = j * identity.
    Contract: <= 1e-12 in Frobenius norm.
    """
    ops = sector_mode_operators(j.twice_value)
    jp_f, jm_f = ops["adag_b"], ops["a_bdag"]
    jz_f = (ops["num_a"] - ops["num_b"]) / 2.0
    j0 = (ops["num_a"] + ops["num_b"]) / 2.0
    jx_f = (jp_f + jm_f) / 2.0
    jy_f = (jp_f - jm_f) / 2.0j

    eye = np.eye(j.dim)
    jsq = jx_f @ jx_f + jy_f @ jy_f + jz_f @ jz_f
    residuals = [
        np.linalg.norm(jp_f - jplus(j).matrix),
        np.linalg.norm(jm_f - jminus(j).matrix),
        np.linalg.norm(jz_f - jz(j).matrix),
        np.linalg.norm(jsq - j0 @ (j0 + eye)),
        np.linalg.norm(j0 - j.value * eye),
    ]
    return float(max(residuals))


def make_noon(n_total: int, omega: float = 0.0, gamma_choice: str = "i") -> TwoModeState:
    """Run the full pipeline: coherent state, quarter-period twist, pi/2
    rotation, Fock relabeling.

    gamma_choice 'i' starts from |j,i> and finishes with the x rotation;
    gamma_choice '1' starts from |j,1> and finishes with the y rotation.
    Even N is guaranteed to reach an exact N00N state (when the linear
    phase clears); odd N runs as an exploratory case and is simply
    measured by `noon_fidelity`.
    """
    if not isinstance(n_total, Integral) or n_total < 1:
        raise InvalidN(f"N must be a positive integer, got {n_total!r}")
    if gamma_choice not in ("i", "1"):
        raise ValueError(f"gamma_choice must be 'i' or '1', got {gamma_choice!r}")
    j = HalfInteger(int(n_total))
    spec = KerrHamiltonianSpec(j, omega=omega, lam=1.0, axis="z")
    gamma = 1j if gamma_choice == "i" else 1.0
    evolved = quarter_period_evolve(spec, coherent_expansion(j, gamma))
    if gamma_choice == "i":
        rotated = rotate_x_quarter(evolved)
    else:
        rotated = expm_hermitian(jy(j), math.pi / 2.0).apply(evolved)
    return spin_to_fock(rotated)


def noon_fidelity(state: TwoModeState) -> tuple[float, float]:
    """Best fidelity against the N00N family, maximized over its phase.

    Returns (fidelity, best_phi) with best_phi in [0, pi); the N00N phase
    is only defined modulo pi because phi -> phi + pi is a global sign.
    """
    if state.n_total < 1:
        raise InvalidN("the N00N family needs N >= 1")
    top = state.amplitudes[-1]
    bottom = state.amplitudes[0]
    fid = (abs(top) + abs(bottom)) / math.sqrt(2.0)
    best = ((np.angle(bottom) - np.angle(top)) / 2.0) % math.pi
    return float(fid), float(best)


def off_support_mass(state: TwoModeState) -> float:
    """Probability mass outside the two extremal occupations."""
    inner = state.amplitudes[1:-1] if state.n_total >= 1 else state.amplitudes[:0]
    return float(np.sum(np.abs(inner) ** 2))
