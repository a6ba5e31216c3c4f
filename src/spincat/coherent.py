"""SU(2) coherent states and the Bloch-sphere bookkeeping around them.

A coherent state is labeled either by Bloch angles (theta, phi) or by the
stereographic image gamma = e^{i phi} tan(theta/2) of that point; theta = pi
maps to the distinguished pole label.  Under the expansion used here,

    |j,gamma>  has amplitudes  sqrt(C(2j,k)) cos(theta/2)^{2j-k}
                               sin(theta/2)^k e^{ik phi}   on  k = j + m,

so gamma = 0 is the lowest-weight state |j,-j>_z and the pole is |j,+j>_z.
All state comparisons elsewhere in the package use fidelity |<a|b>|; global
phases are physically meaningless except where a test pins one deliberately.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IrrepMismatch, PoleLabel
from .halfint import HalfInteger, m_values
from .su2 import SpinOperator, SpinState, _generators, jx, jy, jz


@dataclass(frozen=True)
class BlochDirection:
    """Point on the Bloch sphere; phi is wrapped into [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


@dataclass(frozen=True)
class StereoLabel:
    """Finite complex stereographic coordinate, or the pole (theta = pi)."""

    gamma: complex = 0j
    at_pole: bool = False

    def __post_init__(self):
        g = complex(self.gamma)
        if self.at_pole:
            g = 0j
        elif not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise ValueError("finite label required; use StereoLabel.pole() for theta = pi")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def pole(cls) -> "StereoLabel":
        return cls(0j, at_pole=True)

    @classmethod
    def finite(cls, gamma: complex) -> "StereoLabel":
        return cls(complex(gamma), at_pole=False)

    def negated(self) -> "StereoLabel":
        """Label of the antipodal-in-phi state, gamma -> -gamma."""
        if self.at_pole:
            return self
        return StereoLabel.finite(-self.gamma)


def as_label(gamma) -> StereoLabel:
    """Coerce a complex number (or label) to a StereoLabel."""
    if isinstance(gamma, StereoLabel):
        return gamma
    g = complex(gamma)
    if math.isinf(abs(g)):
        return StereoLabel.pole()
    return StereoLabel.finite(g)


def stereographic(direction: BlochDirection) -> StereoLabel:
    """Bloch angles to stereographic label; theta = pi goes to the pole."""
    if direction.theta == math.pi:
        return StereoLabel.pole()
    return StereoLabel.finite(
        complex(math.cos(direction.phi), math.sin(direction.phi)) * math.tan(direction.theta / 2.0)
    )


def bloch_direction(label) -> BlochDirection:
    """Inverse of `stereographic`; the pole maps to theta = pi, phi = 0."""
    label = as_label(label)
    if label.at_pole:
        return BlochDirection(math.pi, 0.0)
    return BlochDirection(2.0 * math.atan(abs(label.gamma)), np.angle(label.gamma) % (2.0 * math.pi))


# cat and scan expand a state and then fit it at the same 2j; two entries
# let each row take the integers once.
@functools.lru_cache(maxsize=2)
def _sqrt_binomials(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sqrt C(2j,k) over k = 0..2j, big, log C(2j,k) / 2 over k in big), read-only.

    `big` holds the k whose binomial is past the float range (from 2j = 1030
    on); their entries of the first array are 0.
    """
    # Exact integers, each from the last: C(n, i+1) = C(n, i) (n - i) / (i + 1).
    # One is held at a time.
    exact, big, log_c = [], [], []
    binomial = 1
    for i in range(twice_j + 1):
        if binomial <= sys.float_info.max:
            exact.append(binomial)
        else:
            exact.append(0)
            big.append(i)
            log_c.append(math.log(binomial))
        binomial = binomial * (twice_j - i) // (i + 1)
    arrays = (np.sqrt(np.array(exact, dtype=float)), np.array(big, dtype=np.intp), 0.5 * np.array(log_c))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _binomial_weights(twice_j: int, half) -> np.ndarray:
    """sqrt(C(2j,k)) cos(half)^(2j-k) sin(half)^k over k = 0..2j.

    `half` is theta/2, a scalar or a column of them (one row each).
    Binomials past the float range (from 2j = 1030 on) take the log form
    exp(log C / 2 + (2j-k) log cos + k log sin) instead.
    """
    sqrt_c, big, half_log_c = _sqrt_binomials(twice_j)
    k = np.arange(twice_j + 1)
    weights = sqrt_c * np.cos(half) ** (twice_j - k) * np.sin(half) ** k
    if big.size:
        kb = k[big]
        # At theta = 0 log sin is -inf and the weight exp(-inf) = 0; big
        # entries have 0 < k < 2j, so no 0 * inf arises.
        with np.errstate(divide="ignore"):
            log_w = half_log_c + (twice_j - kb) * np.log(np.cos(half)) + kb * np.log(np.sin(half))
        weights[..., big] = np.exp(log_w)
    return weights


def coherent_expansion(j: HalfInteger, gamma) -> SpinState:
    """Coherent state |j,gamma> by direct expansion over the weight basis.

    The trigonometric form (see module docstring) is used instead of raw
    powers of |gamma| so that large 2j and large |gamma| neither overflow
    nor lose the pole limit: gamma -> infinity lands on |j,+j>_z exactly.
    """
    label = as_label(gamma)
    tj = j.twice_value
    amps = np.zeros(j.dim, dtype=np.complex128)
    if label.at_pole:
        amps[-1] = 1.0
        return SpinState(j, amps)
    return _with_phase(j, _binomial_weights(tj, math.atan(abs(label.gamma))), label)


def _with_phase(j: HalfInteger, radial: np.ndarray, label: StereoLabel) -> SpinState:
    """|j,gamma> from its radial weights, `_binomial_weights(2j, atan|gamma|)`."""
    return SpinState(j, radial * np.exp(1j * np.angle(label.gamma) * np.arange(j.twice_value + 1)))


def rotation_operator(j: HalfInteger, gamma) -> SpinOperator:
    """Unitary taking the lowest-weight state |j,-j>_z onto |j,gamma>.

    With gamma = e^{i phi} tan(theta/2) this is the rotation
    exp{ (theta/2) (e^{i phi} J+ - e^{-i phi} J-) }; the phase of the
    ladder combination is fixed so the rotated state matches
    `coherent_expansion` component by component, not just up to phase.

    The generator is sin(phi) Jx + cos(phi) Jy = R Jx R^dag with the
    diagonal R = exp(-i (pi/2 - phi) Jz), so with (w, V) the real
    eigensystem of Jx and W = R V the unitary is
    I + W (e^{i theta w} - 1) W^dag.  No complex matrix is diagonalized, and
    theta = 0 gives I exactly.

    Raises PoleLabel at the pole, where no finite rotation angle exists in
    this parametrization; build that state directly from theta = pi.
    """
    label = as_label(gamma)
    if label.at_pole:
        raise PoleLabel("rotation_operator requires a finite label")
    theta = 2.0 * math.atan(abs(label.gamma))
    phi = float(np.angle(label.gamma))
    w, v = _generators(j.twice_value).jx_eigensystem
    rv = np.exp(-1j * (math.pi / 2.0 - phi) * m_values(j))[:, None] * v
    return SpinOperator(j, np.eye(j.dim) + (rv * np.expm1(1j * theta * w)) @ rv.conj().T)


def overlap(a: SpinState, b: SpinState) -> complex:
    """<a|b> for two states of the same j."""
    if a.j != b.j:
        raise IrrepMismatch(f"2j={a.j.twice_value} vs 2j={b.j.twice_value}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: SpinState, b: SpinState) -> float:
    return abs(overlap(a, b))


def mean_spin(state: SpinState) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) as a real 3-vector."""
    vals = np.array(
        [np.vdot(state.amplitudes, op(state.j).matrix @ state.amplitudes) for op in (jx, jy, jz)]
    )
    if np.max(np.abs(vals.imag)) > 1e-12:
        raise ValueError("generator expectations came out non-real")
    return vals.real


@dataclass(frozen=True)
class CatDecomposition:
    """c_plus |j,label_plus> + c_minus |j,label_minus>."""

    j: HalfInteger
    label_plus: StereoLabel
    label_minus: StereoLabel
    coeff_plus: complex
    coeff_minus: complex

    def materialize(self) -> SpinState:
        vec = (
            self.coeff_plus * coherent_expansion(self.j, self.label_plus).amplitudes
            + self.coeff_minus * coherent_expansion(self.j, self.label_minus).amplitudes
        )
        return SpinState(self.j, vec)


def husimi_grid(state: SpinState, n_theta: int, n_phi: int):
    """Overlap-squared of `state` with the coherent family on an angle grid.

    Returns (thetas, phis, q) with thetas = linspace(0, pi, n_theta),
    phis = linspace(0, 2pi, n_phi, endpoint=False) and
    q[i, k] = |<j, gamma(theta_i, phi_k) | state>|^2 in [0, 1].
    """
    if n_theta < 2 or n_phi < 1:
        raise ValueError("grid needs n_theta >= 2 and n_phi >= 1")
    tj = state.j.twice_value
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    radial = _binomial_weights(tj, thetas[:, None] / 2.0)
    # <coh(theta,phi)|psi> = sum_k radial_k e^{-ik phi} psi_k
    phase = np.exp(-1j * np.outer(np.arange(tj + 1), phis)) * state.amplitudes[:, None]
    q = np.abs(radial @ phase) ** 2
    return thetas, phis, q
