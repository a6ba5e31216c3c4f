"""Angular-momentum matrices for a single spin-j representation.

Conventions used everywhere in this package:

* basis vectors are ordered by ascending weight, m = -j, ..., +j;
* ladder matrix elements are real and non-negative (Condon-Shortley),
  <j,m+1| J+ |j,m> = sqrt(j(j+1) - m(m+1));
* hbar = 1.

All states and operators are immutable after construction; every function
here is pure and safe to call from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IrrepMismatch, NonHermitianInput
from .halfint import HalfInteger, m_values

# Residual gate applied before exponentiating a generator.  Anything above
# this is a construction bug, not rounding.
HERMITICITY_GATE = 1e-9

# Constructors renormalize only when the norm actually drifted; leaving
# already-unit vectors untouched keeps serialization round trips bit-exact.
_NORM_SNAP = 1e-13
_NORM_GATE = 1e-9


def _frozen_complex_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _unit_vector(values, dim: int) -> np.ndarray:
    """Frozen copy of a length-`dim` unit vector; the one state validator.

    Raises ValueError on a wrong length, non-finite entries, or a norm
    further than _NORM_GATE from 1.
    """
    arr = _frozen_complex_array(values, (dim,))
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > _NORM_GATE:
        raise ValueError(f"state norm {nrm} is not 1 within {_NORM_GATE}")
    if abs(nrm - 1.0) > _NORM_SNAP:
        arr = arr / nrm
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinState:
    """Unit vector of amplitudes over |j,m>_z, ordered m = -j..+j."""

    j: HalfInteger
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit_vector(self.amplitudes, self.j.dim))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class SpinOperator:
    """Dense complex matrix acting on one spin-j representation."""

    j: HalfInteger
    matrix: np.ndarray

    def __post_init__(self):
        d = self.j.dim
        object.__setattr__(self, "matrix", _frozen_complex_array(self.matrix, (d, d)))

    def apply(self, state: SpinState) -> SpinState:
        """Apply a norm-preserving operator to a state."""
        if state.j != self.j:
            raise IrrepMismatch(f"operator 2j={self.j.twice_value}, state 2j={state.j.twice_value}")
        return SpinState(self.j, self.matrix @ state.amplitudes)

    def dagger(self) -> "SpinOperator":
        return SpinOperator(self.j, self.matrix.conj().T)

    def __matmul__(self, other: "SpinOperator") -> "SpinOperator":
        if other.j != self.j:
            raise IrrepMismatch("cannot compose operators from different irreps")
        return SpinOperator(self.j, self.matrix @ other.matrix)

    def hermiticity_residual(self) -> float:
        """||M - M^dag||_F / dim."""
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T) / self.j.dim)

    def unitarity_residual(self) -> float:
        """||M^dag M - 1||_F / dim."""
        d = self.j.dim
        return float(np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(d)) / d)


def weight_state(j: HalfInteger, twice_m: int) -> SpinState:
    """The z-basis ket |j,m>, given 2m."""
    tj = j.twice_value
    if abs(twice_m) > tj or (twice_m - tj) % 2 != 0:
        raise ValueError(f"2m={twice_m} is not a weight of 2j={tj}")
    amps = np.zeros(j.dim, dtype=np.complex128)
    amps[(twice_m + tj) // 2] = 1.0
    return SpinState(j, amps)


def identity(j: HalfInteger) -> SpinOperator:
    return SpinOperator(j, np.eye(j.dim, dtype=np.complex128))


def jz(j: HalfInteger) -> SpinOperator:
    """Diagonal weight operator, eigenvalues m = -j..+j."""
    return SpinOperator(j, np.diag(m_values(j)).astype(np.complex128))


def jplus(j: HalfInteger) -> SpinOperator:
    """Raising operator; maps |j,m> to sqrt(j(j+1)-m(m+1)) |j,m+1>."""
    jj1 = j.casimir_eigenvalue()
    m = m_values(j)[:-1]
    return SpinOperator(j, np.diag(np.sqrt(jj1 - m * (m + 1)), k=-1).astype(np.complex128))


def jminus(j: HalfInteger) -> SpinOperator:
    """Lowering operator, the adjoint of jplus."""
    return jplus(j).dagger()


def jx(j: HalfInteger) -> SpinOperator:
    return SpinOperator(j, (jplus(j).matrix + jminus(j).matrix) / 2.0)


def jy(j: HalfInteger) -> SpinOperator:
    return SpinOperator(j, (jplus(j).matrix - jminus(j).matrix) / 2.0j)


def casimir(j: HalfInteger) -> SpinOperator:
    """Jx^2 + Jy^2 + Jz^2; equals j(j+1) times the identity."""
    x, y, z = jx(j).matrix, jy(j).matrix, jz(j).matrix
    return SpinOperator(j, x @ x + y @ y + z @ z)


def expm_hermitian(h: SpinOperator, t: float) -> SpinOperator:
    """The unitary exp(-i H t) for a Hermitian generator H.

    Computed by eigendecomposition, which keeps the result unitary to
    rounding for the small dense matrices used here.

    Raises NonHermitianInput if H fails the Hermiticity gate.
    """
    res = h.hermiticity_residual()
    if res > HERMITICITY_GATE:
        raise NonHermitianInput(f"Hermiticity residual {res:.3e} exceeds {HERMITICITY_GATE:.0e}")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return SpinOperator(h.j, u)


def expectation(op: SpinOperator, state: SpinState) -> complex:
    """<state| op |state>."""
    if op.j != state.j:
        raise IrrepMismatch("operator and state from different irreps")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def commutator(a: SpinOperator, b: SpinOperator) -> SpinOperator:
    return SpinOperator(a.j, a.matrix @ b.matrix - b.matrix @ a.matrix)
