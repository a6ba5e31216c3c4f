"""Angular-momentum matrices and rotations for a single spin-j representation.

`_apply_function` applies a function of Jx or Jy to a state without
building a d x d complex matrix: it takes the values of the function on the
weights m, which are Jx's eigenvalues exactly, in Jx's eigenbasis V.  It
is the one reader of V: `rotate` is its one pipeline caller, and `verify`,
which defines its own second routes, the only other.  The generator
matrices and `expm_hermitian`, which exponentiates any Hermitian generator
by dense eigendecomposition, are the dense reference the state kernels are
tested against; nothing in the pipeline calls them, the package does not
export them, and the tests reach them through `tests/_oracles.py`.  They
are defined here only until the benchmark stops reading them by this
module's name.

The pipeline reads three structures: J+'s band (`_ladder`), the weights m
and Jx's eigenvectors V.  `verify` checks the algebra on exactly these, in
O(d) from the band and in O(d^2) for Jx V = V diag(m).

Per-2j tables follow one rule, `_per_twice_j`: a table is read-only, kept
for every 2j up to 64, the range verify sweeps again in each section, and
built afresh per call past 64, so a run of distinct large 2j holds nothing
after its caller is done.  Jx's eigenvectors (`_jx_eigensystem`, ~0.77 MB
kept in all), the weights m with J+'s band and the phases (-i)^k
(`_weights`, ~68 kB, which `_apply_function`, the z twist and `mean_spin`
read in place of rebuilding them per call) and the exact binomials
(`coherent._sqrt_binomials`) are the only such tables.  `verify`'s algebra
checks build J+'s band afresh from `_ladder`, the weights table's builder,
so a corrupted band shows there and not only in what was kept.  Generator
matrices are built per call and never kept.

Conventions used everywhere in this package:

* basis vectors are ordered by ascending weight, m = -j, ..., +j;
* ladder matrix elements are real and non-negative (Condon-Shortley),
  <j,m+1| J+ |j,m> = sqrt(j(j+1) - m(m+1));
* hbar = 1.

All states and operators are immutable after construction; every function
here is pure and safe to call from multiple threads.

Inputs follow the package's three rules in `errors`: 2m is a size
(`_size`), an angle or time is a finite real (`_finite`), and an axis is a
choice (`_choice`, checked once, in `_apply_function`).  A j must be a
HalfInteger (`halfint._spin`), else TypeError.  State and operator
entries are checked by their own validators, `_unit_vector` and
`_frozen_complex_array`, which also bound the norm and the shape.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IrrepMismatch, NonHermitianInput, _choice, _finite, _shown, _size
from .halfint import HalfInteger, _spin, m_values

# Residual gate applied before exponentiating a generator.  Anything above
# this is a construction bug, not rounding.
HERMITICITY_GATE = 1e-9

# Constructors renormalize only when the norm actually drifted; leaving
# already-unit vectors untouched keeps serialization round trips bit-exact.
_NORM_SNAP = 1e-13
_NORM_GATE = 1e-9


def _complex_copy(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


def _frozen_complex_array(values, shape) -> np.ndarray:
    arr = _complex_copy(values, shape)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _unit_vector(values, dim: int) -> np.ndarray:
    """Frozen copy of a length-`dim` unit vector; the one state validator.

    Raises ValueError on a wrong length, non-finite entries, or a norm
    further than _NORM_GATE from 1.  The norm is `np.linalg.norm`'s own
    arithmetic for a complex vector, and the entries are scanned for NaN
    and inf only when it is not finite, so a valid state takes one pass.
    """
    arr = _complex_copy(values, (dim,))
    re, im = arr.real, arr.imag
    nrm = math.sqrt(re.dot(re) + im.dot(im))
    if not math.isfinite(nrm) and not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
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
        object.__setattr__(self, "amplitudes", _unit_vector(self.amplitudes, _spin(self.j).dim))


@dataclass(frozen=True)
class SpinOperator:
    """Dense complex matrix acting on one spin-j representation."""

    j: HalfInteger
    matrix: np.ndarray

    def __post_init__(self):
        d = _spin(self.j).dim
        object.__setattr__(self, "matrix", _frozen_complex_array(self.matrix, (d, d)))

    def apply(self, state: SpinState) -> SpinState:
        """Apply a norm-preserving operator to a state."""
        if state.j != self.j:
            raise IrrepMismatch(f"operator 2j={self.j.twice_value}, state 2j={state.j.twice_value}")
        return SpinState(self.j, self.matrix @ state.amplitudes)

    def dagger(self) -> "SpinOperator":
        return SpinOperator(self.j, self.matrix.conj().T)

    def hermiticity_residual(self) -> float:
        """||M - M^dag||_F / dim."""
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T) / self.j.dim)


def weight_state(j: HalfInteger, twice_m: int) -> SpinState:
    """The z-basis ket |j,m>, given 2m; ValueError unless 2m is an int weight of 2j."""
    tj = _spin(j).twice_value
    if _size(twice_m, -tj, ValueError, "2m") > tj or (twice_m - tj) % 2 != 0:
        raise ValueError(f"2m={_shown(twice_m)} is not a weight of 2j={tj}")
    amps = np.zeros(j.dim, dtype=np.complex128)
    amps[(twice_m + tj) // 2] = 1.0
    return SpinState(j, amps)


def _ladder(j: HalfInteger) -> np.ndarray:
    """sqrt(j(j+1) - m(m+1)) for m = -j..j-1, the J+ entries below the diagonal."""
    m = m_values(j)[:-1]
    return np.sqrt(j.casimir_eigenvalue() - m * (m + 1))


# verify sweeps every 2j up to here again in each section; past it a table
# would pin O(d) to O(d^2) memory after its caller is done with it.
_KEPT_MAX_TWICE_J = 64


def _per_twice_j(build):
    """Wrap `build(twice_j) -> tuple of arrays` as a per-2j table.

    The arrays are made read-only.  A table is kept in the wrapper's `kept`
    dict for every 2j up to _KEPT_MAX_TWICE_J and built afresh per call past it.
    """

    @functools.wraps(build)
    def table(twice_j: int):
        arrays = table.kept.get(twice_j)
        if arrays is not None:
            return arrays
        arrays = build(twice_j)
        for arr in arrays:
            arr.setflags(write=False)
        if twice_j > _KEPT_MAX_TWICE_J:
            return arrays
        # Threads racing on one 2j all return the first result stored.
        return table.kept.setdefault(twice_j, arrays)

    table.kept = {}
    return table


# (-i)^k by k mod 4: Jy = D Jx D^dag with D = diag((-i)^k), k = j + m.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


@_per_twice_j
def _weights(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, J+'s band, (-i)^k) over k = j + m: `m_values`, `_ladder` and D's diagonal."""
    j = HalfInteger(twice_j)
    return m_values(j), _ladder(j), _MINUS_I_POWERS[np.arange(j.dim) % 4]


@_per_twice_j
def _jx_eigensystem(twice_j: int) -> tuple[np.ndarray]:
    """(V,): eigh's real orthonormal eigenvectors of the tridiagonal Jx, for ascending eigenvalues m."""
    off = _ladder(HalfInteger(twice_j)) / 2.0
    return (np.linalg.eigh(np.diag(off, k=-1) + np.diag(off, k=1))[1],)


def _ladder_matrix(j: HalfInteger) -> np.ndarray:
    """J+ as a new complex d x d array, for builders that need no validated copy."""
    return np.diag(_ladder(j), k=-1).astype(np.complex128)


def jz(j: HalfInteger) -> SpinOperator:
    """Diagonal weight operator, eigenvalues m = -j..+j."""
    return SpinOperator(j, np.diag(m_values(j)).astype(np.complex128))


def jplus(j: HalfInteger) -> SpinOperator:
    """Raising operator; maps |j,m> to sqrt(j(j+1)-m(m+1)) |j,m+1>."""
    return SpinOperator(j, _ladder_matrix(j))


def jminus(j: HalfInteger) -> SpinOperator:
    """Lowering operator, the adjoint of jplus."""
    return jplus(j).dagger()


def jx(j: HalfInteger) -> SpinOperator:
    plus = _ladder_matrix(j)
    return SpinOperator(j, (plus + plus.conj().T) / 2.0)


def jy(j: HalfInteger) -> SpinOperator:
    plus = _ladder_matrix(j)
    return SpinOperator(j, (plus - plus.conj().T) / 2.0j)


def casimir(j: HalfInteger) -> SpinOperator:
    """Jx^2 + Jy^2 + Jz^2; equals j(j+1) times the identity."""
    x, y, z = jx(j).matrix, jy(j).matrix, jz(j).matrix
    return SpinOperator(j, x @ x + y @ y + z @ z)


def expm_hermitian(h: SpinOperator, t: float) -> SpinOperator:
    """The unitary exp(-i H t) for a Hermitian generator H.

    Computed by dense eigendecomposition, which keeps the result unitary
    to rounding.  This is the reference route: `rotate`, verify's own
    routes and the diagonal twist in `dynamics` are tested against it.

    Raises ValueError for a t that is not a finite real, and
    NonHermitianInput if H fails the Hermiticity gate.
    """
    _finite(t, ValueError, "t")
    res = h.hermiticity_residual()
    if res > HERMITICITY_GATE:
        raise NonHermitianInput(f"Hermiticity residual {res:.3e} exceeds {HERMITICITY_GATE:.0e}")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return SpinOperator(h.j, u)


def _apply_function(j: HalfInteger, axis: str, f, psi) -> np.ndarray:
    """f(J_axis) psi for axis 'x' or 'y', the one reader of Jx's eigenvectors V.

    Jx's eigenvalues are the weights m, so this is V (f(m) * (V^T psi)); for
    y it is conjugated by D = diag((-i)^k), exactly.  `f` maps m to a vector
    or a d x n matrix of values, and `psi` is a vector or a d x 1 column, so
    n functions of one state come out as the n columns of one product.  No
    d x d complex matrix is formed.
    """
    _choice(axis, ("x", "y"), "axis")
    (v,) = _jx_eigensystem(j.twice_value)
    m, _, d = _weights(j.twice_value)
    if axis == "y":
        d = d.reshape((-1,) + (1,) * (np.ndim(psi) - 1))
        psi = d.conj() * psi
    # Real and imaginary parts separately: a real V never turns into a
    # complex d x d copy.
    c = f(m) * (v.T @ psi.real + 1j * (v.T @ psi.imag))
    out = v @ c.real + 1j * (v @ c.imag)
    return d * out if axis == "y" else out


def rotate(state: SpinState, axis: str, angle: float) -> SpinState:
    """exp(-i angle J_axis) |state> for axis 'x' or 'y', by `_apply_function`.

    An angle that is not a finite real raises ValueError before any phase is formed.
    """
    _finite(angle, ValueError, "rotation angle")
    return SpinState(state.j, _apply_function(state.j, axis, lambda w: np.exp(-1j * angle * w), state.amplitudes))
