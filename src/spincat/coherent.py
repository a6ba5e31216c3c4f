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

import math
from dataclasses import dataclass

import numpy as np

from .errors import IrrepMismatch, PoleLabel
from .halfint import HalfInteger
from .su2 import SpinOperator, SpinState, expm_hermitian, jx, jy, jz


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


def _binomial_weights(twice_j: int, half) -> np.ndarray:
    """sqrt(C(2j,k)) cos(half)^(2j-k) sin(half)^k over k = 0..2j.

    `half` is theta/2, a scalar or a column of them (one row each).
    """
    k = np.arange(twice_j + 1)
    sqrt_binomials = np.sqrt(np.array([math.comb(twice_j, i) for i in range(twice_j + 1)], dtype=float))
    return sqrt_binomials * np.cos(half) ** (twice_j - k) * np.sin(half) ** k


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
    radial = _binomial_weights(tj, math.atan(abs(label.gamma)))
    amps = radial * np.exp(1j * np.angle(label.gamma) * np.arange(tj + 1))
    return SpinState(j, amps)


def rotation_operator(j: HalfInteger, gamma) -> SpinOperator:
    """Unitary taking the lowest-weight state |j,-j>_z onto |j,gamma>.

    With gamma = e^{i phi} tan(theta/2) this is the rotation
    exp{ (theta/2) (e^{i phi} J+ - e^{-i phi} J-) }; the phase of the
    ladder combination is fixed so the rotated state matches
    `coherent_expansion` component by component, not just up to phase.

    Raises PoleLabel at the pole, where no finite rotation angle exists in
    this parametrization; build that state directly from theta = pi.
    """
    label = as_label(gamma)
    if label.at_pole:
        raise PoleLabel("rotation_operator requires a finite label")
    theta = 2.0 * math.atan(abs(label.gamma))
    phi = float(np.angle(label.gamma))
    gen = -theta * (math.sin(phi) * jx(j).matrix + math.cos(phi) * jy(j).matrix)
    return expm_hermitian(SpinOperator(j, gen), 1.0)


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


def jy_extremal_states(j: HalfInteger) -> tuple[SpinState, SpinState]:
    """Eigenvectors of Jy with eigenvalues (+j, -j), in that order.

    Each returned state is phase-aligned to the coherent state it coincides
    with; under this package's conventions |j,+i> is the -j eigenstate and
    |j,-i> the +j one (the pairing is frozen by a convention test).
    """
    _, vecs = np.linalg.eigh(jy(j).matrix)
    plus, minus = vecs[:, -1], vecs[:, 0]

    def aligned(vec: np.ndarray, target: SpinState) -> SpinState:
        ov = np.vdot(vec, target.amplitudes)
        if abs(ov) > 0:
            vec = vec * (ov / abs(ov))
        return SpinState(j, vec)

    return (
        aligned(plus, coherent_expansion(j, -1j)),
        aligned(minus, coherent_expansion(j, 1j)),
    )


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
