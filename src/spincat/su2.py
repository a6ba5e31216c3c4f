"""Angular-momentum matrices and rotations for a single spin-j representation.

`rotate` turns a state about the x or y axis without building a d x d
complex unitary: it diagonalizes the real tridiagonal Jx and applies phases in
that eigenbasis.  `coherent.rotation_operator` builds its unitary from the
same real eigensystem.  `expm_hermitian` exponentiates any Hermitian
generator densely; it serves `quarter_period_unitary`, `x_rotation` and
verify's conjugation route, and is the reference the fast paths are tested
against.

For the last two values of 2j up to 400, each generator matrix and Jx's
eigensystem is built on first use and then shared (`_generators`); every
cached array is read-only.  Past 2j = 400 they are built afresh per call.

Conventions used everywhere in this package:

* basis vectors are ordered by ascending weight, m = -j, ..., +j;
* ladder matrix elements are real and non-negative (Condon-Shortley),
  <j,m+1| J+ |j,m> = sqrt(j(j+1) - m(m+1));
* hbar = 1.

All states and operators are immutable after construction; every function
here is pure and safe to call from multiple threads.
"""
from __future__ import annotations

import functools
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


def _ladder(j: HalfInteger) -> np.ndarray:
    """sqrt(j(j+1) - m(m+1)) for m = -j..j-1, the J+ entries below the diagonal."""
    m = m_values(j)[:-1]
    return np.sqrt(j.casimir_eigenvalue() - m * (m + 1))


def _jx_eigensystem(j: HalfInteger) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and real orthonormal eigenvectors V of the tridiagonal Jx."""
    off = _ladder(j) / 2.0
    return np.linalg.eigh(np.diag(off, k=-1) + np.diag(off, k=1))


class _Generators:
    """The generators of one irrep and Jx's eigensystem, each built on first use."""

    def __init__(self, j: HalfInteger):
        self.j = j

    @functools.cached_property
    def plus(self) -> SpinOperator:
        return SpinOperator(self.j, np.diag(_ladder(self.j), k=-1).astype(np.complex128))

    @functools.cached_property
    def minus(self) -> SpinOperator:
        return self.plus.dagger()

    @functools.cached_property
    def x(self) -> SpinOperator:
        return SpinOperator(self.j, (self.plus.matrix + self.minus.matrix) / 2.0)

    @functools.cached_property
    def y(self) -> SpinOperator:
        return SpinOperator(self.j, (self.plus.matrix - self.minus.matrix) / 2.0j)

    @functools.cached_property
    def z(self) -> SpinOperator:
        return SpinOperator(self.j, np.diag(m_values(self.j)).astype(np.complex128))

    @functools.cached_property
    def jx_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = _jx_eigensystem(self.j)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


# Callers loop over j in order, so two entries give every repeat a hit.
@functools.lru_cache(maxsize=2)
def _generators(twice_j: int) -> _Generators:
    """The read-only generators of one 2j, built once per 2j."""
    return _Generators(HalfInteger(twice_j))


# No pipeline builds a dense generator past d = 401, so a larger one is not
# kept: it would pin O(d^2) memory after its caller is done with it.
def _generators_of(j: HalfInteger) -> _Generators:
    """The shared `_generators(2j)` up to 2j = 400; past it, a set nothing keeps."""
    return _generators(j.twice_value) if j.twice_value <= 400 else _Generators(j)


def jz(j: HalfInteger) -> SpinOperator:
    """Diagonal weight operator, eigenvalues m = -j..+j."""
    return _generators_of(j).z


def jplus(j: HalfInteger) -> SpinOperator:
    """Raising operator; maps |j,m> to sqrt(j(j+1)-m(m+1)) |j,m+1>."""
    return _generators_of(j).plus


def jminus(j: HalfInteger) -> SpinOperator:
    """Lowering operator, the adjoint of jplus."""
    return _generators_of(j).minus


def jx(j: HalfInteger) -> SpinOperator:
    return _generators_of(j).x


def jy(j: HalfInteger) -> SpinOperator:
    return _generators_of(j).y


def casimir(j: HalfInteger) -> SpinOperator:
    """Jx^2 + Jy^2 + Jz^2; equals j(j+1) times the identity."""
    x, y, z = jx(j).matrix, jy(j).matrix, jz(j).matrix
    return SpinOperator(j, x @ x + y @ y + z @ z)


def expm_hermitian(h: SpinOperator, t: float) -> SpinOperator:
    """The unitary exp(-i H t) for a Hermitian generator H.

    Computed by dense eigendecomposition, which keeps the result unitary
    to rounding.  This is the reference route: `rotate`,
    `coherent.rotation_operator` and the diagonal twist in `dynamics` are
    tested against it.

    Raises NonHermitianInput if H fails the Hermiticity gate.
    """
    res = h.hermiticity_residual()
    if res > HERMITICITY_GATE:
        raise NonHermitianInput(f"Hermiticity residual {res:.3e} exceeds {HERMITICITY_GATE:.0e}")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return SpinOperator(h.j, u)


# (-i)^k by k mod 4: Jy = D Jx D^dag with D = diag((-i)^k), k = j + m.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


def rotate(state: SpinState, axis: str, angle: float) -> SpinState:
    """exp(-i angle J_axis) |state> for axis 'x' or 'y'.

    Uses the eigensystem (w, V) of the real tridiagonal Jx and returns
    V (e^{-i angle w} * (V^T psi)); the y rotation conjugates it with
    D = diag((-i)^k), exactly.  No d x d complex matrix is formed.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    j = state.j
    # Not from the cache: a run of distinct large N would only fill it.
    w, v = _jx_eigensystem(j)
    psi = state.amplitudes
    if axis == "y":
        d = _MINUS_I_POWERS[np.arange(j.dim) % 4]
        psi = d.conj() * psi
    # Real and imaginary parts separately: a real V never turns into a
    # complex d x d copy.
    c = np.exp(-1j * angle * w) * (v.T @ psi.real + 1j * (v.T @ psi.imag))
    out = v @ c.real + 1j * (v @ c.imag)
    if axis == "y":
        out = d * out
    return SpinState(j, out)
