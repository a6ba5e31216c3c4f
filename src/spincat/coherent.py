"""SU(2) coherent states and the Bloch-sphere bookkeeping around them.

A coherent state is labeled by a unit spinor (u, v) (Arecchi, Courtens,
Gilmore & Thomas, PRA 6, 2211 (1972)):

    |j; u, v>  has amplitudes  sqrt(C(2j,k)) u^{2j-k} v^k   on  k = j + m,

so (1, 0) is |j,-j>_z and the pole (0, 1), an ordinary label, is |j,+j>_z.
Bloch angles give (cos(theta/2), e^{i phi} sin(theta/2)) and gamma = v/u =
e^{i phi} tan(theta/2); the state is also e^{i phi k} exp(i theta Jy) |j,-j>_z,
verify's second route (`verify._rotated_lowest`).  A rotation about x or y
only moves the label (`rotate_label`), global phase included.  All state
comparisons elsewhere in the package use fidelity |<a|b>|; global phases
are physically meaningless except where a test pins one deliberately.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IrrepMismatch, _choice, _finite, _size
from .halfint import HalfInteger, _spin
from .su2 import SpinState, _per_twice_j, _weights

_BOOL_TYPES = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class BlochDirection:
    """Point on the Bloch sphere; phi is wrapped into [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not isinstance(self.theta, float):  # a NaN or inf float gets the range message below
            _finite(self.theta, ValueError, "theta")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        object.__setattr__(self, "phi", _finite(self.phi, ValueError, "phi") % (2.0 * math.pi))


@dataclass(frozen=True)
class SpinorLabel:
    """Unit spinor (u, v) of the coherent state |j; u, v>, pole included.

    The moduli |u| and |v| are kept apart from the phases, which are the
    arguments of `u_dir` and `v_dir`: a complex pair pointing along (u, v),
    (1, gamma) for a label read from gamma and (0, 1) at the pole.  So
    gamma comes back as given and -gamma is an exact sign flip.
    """

    u_abs: float
    v_abs: float
    u_dir: complex
    v_dir: complex

    def __post_init__(self):
        u, v, u_dir, v_dir = self.u_abs, self.v_abs, self.u_dir, self.v_dir
        if not _BOOL_TYPES.isdisjoint((type(u), type(v), type(u_dir), type(v_dir))):  # Python counts bool a number; the rules do not
            raise ValueError(f"a label holds numbers, not bools: {self}")
        try:
            if not (u >= 0.0 and v >= 0.0 and abs(u * u + v * v - 1.0) <= 1e-12):
                raise ValueError(f"({u}, {v}) are not the moduli of a unit spinor")
            if not (cmath.isfinite(u_dir) and cmath.isfinite(v_dir)) or (u == 0.0) != (u_dir == 0) or (v == 0.0) != (v_dir == 0):
                raise ValueError("u_dir and v_dir must be finite and vanish exactly where |u| and |v| do")
        except OverflowError:  # an int past the float range; no repr: past 4300 digits it has none
            raise ValueError("a label entry is past the float range, so it is not finite") from None

    @property
    def gamma(self) -> complex:
        """v / u, the stereographic coordinate; infinite at the pole."""
        return self.v_dir / self.u_dir if self.u_dir else complex(math.inf)

    @property
    def phases(self) -> tuple[float, float]:
        """(arg u, arg v), as `np.angle` reads them from `u_dir` and `v_dir`.

        Computed per read and not kept: `bloch_direction` reads it once per
        label, and `_amplitudes` and `verify._rotated_lowest` read the same
        numbers, bit for bit, for all their labels at once (`_label_columns`).
        """
        return tuple(np.angle((self.u_dir, self.v_dir)).tolist())

    def negated(self) -> "SpinorLabel":
        """Label of the antipodal-in-phi state, v -> -v (gamma -> -gamma)."""
        return SpinorLabel(self.u_abs, self.v_abs, self.u_dir, -self.v_dir)


def as_label(gamma) -> SpinorLabel:
    """Coerce a complex number (infinite: the pole) or label to a SpinorLabel.

    A gamma with a NaN part names no point, not even the pole, and raises
    ValueError; so do a bool, though Python counts it a number, and an int
    past the float range.
    """
    if isinstance(gamma, SpinorLabel):
        return gamma
    if isinstance(gamma, bool) or getattr(gamma, "dtype", None) == bool:  # numpy's bools too
        raise ValueError(f"gamma must be a number, got {gamma!r}")
    try:
        g = complex(gamma)
    except OverflowError:
        raise ValueError("gamma is past the float range, so it is not finite") from None
    if cmath.isnan(g):
        raise ValueError(f"gamma={g} has a NaN part")
    if math.isinf(abs(g)):
        return SpinorLabel(0.0, 1.0, 0j, 1 + 0j)
    half = math.atan(abs(g))
    return SpinorLabel(math.cos(half), math.sin(half), 1 + 0j, g)


def stereographic(direction: BlochDirection) -> SpinorLabel:
    """Bloch angles to a label; theta = pi goes to the pole (0, 1)."""
    if direction.theta == math.pi:  # tan(pi/2) is finite in floating point
        return as_label(math.inf)
    return as_label(complex(math.cos(direction.phi), math.sin(direction.phi)) * math.tan(direction.theta / 2.0))


def bloch_direction(label) -> BlochDirection:
    """Inverse of `stereographic`; the pole maps to theta = pi, phi = 0."""
    label = as_label(label)
    # arg v - arg u, not arg gamma: the division in `gamma` can drop the sign of a zero part.
    arg_u, arg_v = label.phases
    return BlochDirection(2.0 * math.atan(abs(label.gamma)), (arg_v - arg_u) % (2.0 * math.pi))


def _along(modulus: float, direction: complex) -> complex:
    """modulus * direction / |direction|, and 0 for a zero direction.

    A direction on an axis stays exactly on it, where
    cmath.rect(modulus, arg direction) would tip it by cos(pi/2) ~ 6e-17.
    """
    return modulus * (direction / abs(direction)) if direction else 0j


def rotate_label(label, axis: str, angle: float) -> SpinorLabel:
    """Label of exp(-i angle J_axis) |j; u, v>, for axis 'x' or 'y'.

    With c = cos(angle/2) and s = sin(angle/2), x maps (u, v) to
    (cu - isv, -isu + cv) and y to (cu + sv, -su + cv): the spin-1/2
    rotation, which the expansion carries to every j exactly, global phase
    included (it agrees with `su2.rotate`).  At angle +-pi/2, c = |s|
    exactly, so a rotated pole rotates back onto the pole exactly.  An
    angle that is not a finite real raises ValueError.
    """
    _choice(axis, ("x", "y"), "axis")
    _finite(angle, ValueError, "rotation angle")
    label = as_label(label)
    u, v = _along(label.u_abs, label.u_dir), _along(label.v_abs, label.v_dir)
    if abs(angle) == math.pi / 2.0:  # cos(pi/4) and sin(pi/4) round an ulp apart
        c = math.sqrt(0.5)
        s = math.copysign(c, angle)
    else:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if axis == "x":
        u, v = c * u - 1j * s * v, -1j * s * u + c * v
    else:
        u, v = c * u + s * v, -s * u + c * v
    norm = math.hypot(abs(u), abs(v))
    return SpinorLabel(abs(u) / norm, abs(v) / norm, u, v)


# A per-2j table under su2's one rule: kept for 2j up to 64, where verify
# comes back to each 2j, and built afresh past it.
@_per_twice_j
def _sqrt_binomials(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sqrt C(2j,k) over k = 0..2j, big, log C(2j,k) / 2 over k in big).

    `big` holds the k whose binomial is past the float range (from 2j = 1030
    on); their entries of the first array are 0.  That array is allocated
    before the loop, so a 2j whose 2j + 1 entries cannot exist is refused by
    numpy at once: ValueError past the index range, MemoryError past memory.
    """
    # Exact integers, each from the last: C(n, i+1) = C(n, i) (n - i) / (i + 1).
    # One is held at a time.
    sqrt_c = np.zeros(twice_j + 1)
    big, log_c = [], []
    binomial = 1
    for i in range(twice_j + 1):
        if binomial <= sys.float_info.max:
            sqrt_c[i] = binomial
        else:
            big.append(i)
            log_c.append(math.log(binomial))
        binomial = binomial * (twice_j - i) // (i + 1)
    return np.sqrt(sqrt_c, out=sqrt_c), np.array(big, dtype=np.intp), 0.5 * np.array(log_c)


def _binomial_weights(twice_j: int, u_abs, v_abs) -> np.ndarray:
    """sqrt(C(2j,k)) |u|^(2j-k) |v|^k over k = 0..2j.

    `u_abs` and `v_abs` are scalars or columns of them (one row each).
    0.0 ** 0 is 1, so the poles need no branch.  Binomials past the float
    range (from 2j = 1030 on) take the log form
    exp(log C / 2 + (2j-k) log|u| + k log|v|) instead.
    """
    sqrt_c, big, half_log_c = _sqrt_binomials(twice_j)
    k = np.arange(twice_j + 1)
    radial = sqrt_c * u_abs ** (twice_j - k) * v_abs ** k
    if big.size:
        kb = k[big]
        # At a pole one log is -inf and the weight exp(-inf) = 0; big
        # entries have 0 < k < 2j, so no 0 * inf arises.
        with np.errstate(divide="ignore"):
            log_w = half_log_c + (twice_j - kb) * np.log(u_abs) + kb * np.log(v_abs)
        radial[..., big] = np.exp(log_w)
    return radial


def _label_columns(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """|u|, |v|, arg u and arg v of SpinorLabels, each an n x 1 column.

    The fields are packed into one array, and one `np.angle` call reads
    every label's arguments: each label's `phases`, bit for bit.
    """
    packed = np.array([(label.u_abs, label.v_abs, label.u_dir, label.v_dir) for label in labels], dtype=complex)
    columns = packed.reshape(-1, 4).T[:, :, None]
    arg_u, arg_v = np.angle(columns[2:])
    return columns[0].real, columns[1].real, arg_u, arg_v


def _amplitudes(twice_j: int, labels) -> np.ndarray:
    """|j; u, v>'s raw amplitudes, one row per label or gamma: the one map from labels to amplitudes.

    Row n is `_binomial_weights` of label n's moduli times the phase of u^{2j-k} v^k, 2j arg u + k (arg v - arg u).
    """
    u_abs, v_abs, arg_u, arg_v = _label_columns(map(as_label, labels))
    return _binomial_weights(twice_j, u_abs, v_abs) * np.exp(1j * (arg_v - arg_u) * np.arange(twice_j + 1) + 1j * arg_u * twice_j)


def coherent_expansion(j: HalfInteger, gamma) -> SpinState:
    """Coherent state |j; u, v> of a label or gamma, expanded over the weight basis.

    The moduli |u| = cos(theta/2) and |v| = sin(theta/2) are used instead
    of raw powers of |gamma| so that large 2j and large |gamma| neither
    overflow nor lose the pole limit: gamma -> infinity is (0, 1), which
    lands on |j,+j>_z exactly.  A 2j too large for 2j + 1 amplitudes is
    refused at once: numpy's ValueError or MemoryError.
    """
    return SpinState(j, _amplitudes(_spin(j).twice_value, [gamma])[0])


def overlap(a: SpinState, b: SpinState) -> complex:
    """<a|b> for two states of the same j."""
    if a.j != b.j:
        raise IrrepMismatch(f"2j={a.j.twice_value} vs 2j={b.j.twice_value}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: SpinState, b: SpinState) -> float:
    return abs(overlap(a, b))


def mean_spin(state: SpinState) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) as a real 3-vector, in O(d) from J+'s band.

    <J+> = sum_k l_k conj(psi_{k+1}) psi_k is <Jx> + i <Jy>, and
    <Jz> = sum_k m_k |psi_k|^2.
    """
    psi = state.amplitudes
    m, ladder, _ = _weights(state.j.twice_value)
    plus = np.vdot(psi[1:], ladder * psi[:-1])
    return np.array([plus.real, plus.imag, m @ (psi.real**2 + psi.imag**2)])


@dataclass(frozen=True)
class CatDecomposition:
    """sum_s c_s |j; label_s>, with `components` the (label_s, c_s) pairs."""

    j: HalfInteger
    components: tuple[tuple[SpinorLabel, complex], ...]

    def materialize(self) -> SpinState:
        rows = _amplitudes(self.j.twice_value, [label for label, _ in self.components])
        return SpinState(self.j, sum(c * row for (_, c), row in zip(self.components, rows)))


def husimi_grid(state: SpinState, n_theta: int, n_phi: int):
    """Overlap-squared of `state` with the coherent family on an angle grid.

    Returns (thetas, phis, q) with thetas = linspace(0, pi, n_theta),
    phis = linspace(0, 2pi, n_phi, endpoint=False) and
    q[i, k] = |<j, gamma(theta_i, phi_k) | state>|^2 in [0, 1].  Raises
    ValueError unless n_theta is an int >= 2 and n_phi an int >= 1.
    """
    n_theta, n_phi = _size(n_theta, 2, ValueError, "n_theta"), _size(n_phi, 1, ValueError, "n_phi")
    tj = state.j.twice_value
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    half = thetas[:, None] / 2.0
    radial = _binomial_weights(tj, np.cos(half), np.sin(half))
    # <coh(theta,phi)|psi> = sum_k radial_k e^{-ik phi} psi_k
    phase = np.exp(-1j * np.outer(np.arange(tj + 1), phis)) * state.amplitudes[:, None]
    q = np.abs(radial @ phase) ** 2
    return thetas, phis, q
