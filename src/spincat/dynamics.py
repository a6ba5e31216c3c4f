"""Nonlinear twisting dynamics and the two-component-cat analysis.

The Hamiltonian is H = omega * J_a + (lambda / 2j) * J_a^2 for a in {z, y}.
Its period is tau = 4 pi j / lambda; after a quarter period an initial
coherent state |j,gamma> (integer j, axis z, and the linear term's phase
cleared mod 2pi) splits into the equal-weight superposition

    e^{-i pi/4}/sqrt(2) |j,gamma>  +  (-1)^j e^{i pi/4}/sqrt(2) |j,-gamma>.

Half-integer j does not fit this two-label form (the components come out
rotated by pi/2 in phi instead); `cat_scan` measures that case rather than
asserting it.

The axis-z Hamiltonian is diagonal in |j,m>_z, so `quarter_period_evolve`
multiplies amplitudes by phases, and `rotate_x_quarter` uses `su2.rotate`;
neither builds a d x d complex unitary.  `quarter_period_unitary`, `x_rotation` and the
conjugation route of `verify_rotated_identity` return or compose dense
operators from `expm_hermitian`, the reference the state kernels are
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CatDecomposition, _binomial_weights, _with_phase, as_label, coherent_expansion, overlap
from .errors import HalfIntegerUnsupported, IrrepMismatch, ZeroSpin
from .halfint import HalfInteger, m_values
from .su2 import SpinOperator, SpinState, expm_hermitian, jx, jy, jz, rotate, weight_state

_OMEGA_GATE_TOL = 1e-9


@dataclass(frozen=True)
class KerrHamiltonianSpec:
    """Parameters of the twisting Hamiltonian on one irrep."""

    j: HalfInteger
    omega: float = 0.0
    lam: float = 1.0
    axis: str = "z"

    def __post_init__(self):
        if self.j.twice_value == 0:
            raise ZeroSpin("j = 0 has no twisting dynamics")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.axis not in ("z", "y"):
            raise ValueError(f"axis must be 'z' or 'y', got {self.axis!r}")

    @property
    def period(self) -> float:
        """tau = 4 pi j / lambda."""
        return 2.0 * math.pi * self.j.twice_value / self.lam

    @property
    def quarter_period(self) -> float:
        return self.period / 4.0


def kerr_hamiltonian(spec: KerrHamiltonianSpec) -> SpinOperator:
    """omega * J_a + (lambda / 2j) * J_a^2 for the spec's axis."""
    gen = (jz if spec.axis == "z" else jy)(spec.j).matrix
    return SpinOperator(spec.j, spec.omega * gen + (spec.lam / spec.j.twice_value) * gen @ gen)


def quarter_period_unitary(spec: KerrHamiltonianSpec) -> SpinOperator:
    return expm_hermitian(kerr_hamiltonian(spec), spec.quarter_period)


def quarter_period_evolve(spec: KerrHamiltonianSpec, state: SpinState) -> SpinState:
    """Evolve `state` for one quarter period under an axis-z spec.

    H is diagonal, h_m = omega m + (lambda/2j) m^2, so the evolution is
    exp(-i h tau/4) applied elementwise.
    """
    if spec.axis != "z":
        raise ValueError("quarter_period_evolve expects an axis-z spec")
    if state.j != spec.j:
        raise IrrepMismatch("state and Hamiltonian live in different irreps")
    m = m_values(spec.j)
    h = spec.omega * m + (spec.lam / spec.j.twice_value) * (m * m)
    return SpinState(spec.j, np.exp(-1j * h * spec.quarter_period) * state.amplitudes)


def _require_cleared_linear_phase(spec: KerrHamiltonianSpec):
    """The two-component identities need omega * tau/4 = 0 (mod 2pi)."""
    residue = math.remainder(spec.omega * spec.quarter_period, 2.0 * math.pi)
    if abs(residue) > _OMEGA_GATE_TOL:
        raise ValueError(
            f"omega={spec.omega} leaves linear phase {residue:.3e} (mod 2pi); "
            "the cat identity only holds when it clears"
        )


def _require_integer(j: HalfInteger):
    if not j.is_integer:
        raise HalfIntegerUnsupported(
            f"j={j} is half-odd-integer; use cat_scan for the exploratory case"
        )


def predicted_cat(j: HalfInteger, gamma) -> CatDecomposition:
    """The two-component decomposition produced by a quarter period (integer j)."""
    _require_integer(j)
    label = as_label(gamma)
    sign = -1.0 if (j.twice_value // 2) % 2 else 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return CatDecomposition(
        j=j,
        label_plus=label,
        label_minus=label.negated(),
        coeff_plus=inv_sqrt2 * np.exp(-1j * math.pi / 4.0),
        coeff_minus=sign * inv_sqrt2 * np.exp(1j * math.pi / 4.0),
    )


def verify_cat_identity(j: HalfInteger, gamma, omega: float = 0.0) -> float:
    """Fidelity of the quarter-period state against `predicted_cat`.

    Contract: >= 1 - 1e-10 for integer j whenever the omega gate passes.
    """
    spec = KerrHamiltonianSpec(j, omega=omega, lam=1.0, axis="z")
    _require_integer(j)
    _require_cleared_linear_phase(spec)
    evolved = quarter_period_evolve(spec, coherent_expansion(j, gamma))
    return abs(overlap(evolved, predicted_cat(j, gamma).materialize()))


def fit_two_component(state: SpinState, gamma) -> tuple[float, complex, complex]:
    """Least-squares decomposition of `state` onto span{|j,gamma>, |j,-gamma>}.

    Returns (fidelity, c_plus, c_minus) where fidelity is the norm of the
    orthogonal projection of `state` onto the span.  Independent of the
    prediction route: nothing here assumes how `state` was produced.
    """
    label = as_label(gamma)
    if label.at_pole or label.gamma == 0:
        raise ValueError("need a finite nonzero label so the two components differ")
    # |-gamma| = |gamma|, so both components share one set of radial weights.
    radial = _binomial_weights(state.j.twice_value, math.atan(abs(label.gamma)))
    basis = np.column_stack([_with_phase(state.j, radial, lbl).amplitudes for lbl in (label, label.negated())])
    coeffs, *_ = np.linalg.lstsq(basis, state.amplitudes, rcond=None)
    fid = float(np.linalg.norm(basis @ coeffs))
    return fid, complex(coeffs[0]), complex(coeffs[1])


@dataclass(frozen=True)
class CatScanRow:
    twice_j: int
    omega: float
    fidelity: float
    coeff_plus: complex
    coeff_minus: complex


def cat_scan(j_list, omega_list, gamma=1j) -> list[CatScanRow]:
    """Measured two-component fidelity of the quarter-period state.

    Runs every (j, omega) pair, integer or half-integer alike, with no
    pass/fail contract; integer rows with cleared linear phase come out at
    fidelity 1, half-integer rows record whatever the fit finds.
    """
    rows = []
    for j in j_list:
        for omega in omega_list:
            spec = KerrHamiltonianSpec(j, omega=omega, lam=1.0, axis="z")
            evolved = quarter_period_evolve(spec, coherent_expansion(j, gamma))
            fid, c_plus, c_minus = fit_two_component(evolved, gamma)
            rows.append(CatScanRow(j.twice_value, omega, fid, c_plus, c_minus))
    return rows


def x_rotation(j: HalfInteger, angle: float) -> SpinOperator:
    """exp(-i * angle * Jx)."""
    return expm_hermitian(jx(j), angle)


def rotate_x_quarter(state: SpinState) -> SpinState:
    """Rotate a state by pi/2 about the x axis, exp(-i (pi/2) Jx)."""
    return rotate(state, "x", math.pi / 2.0)


def rotated_cat_prediction(j: HalfInteger) -> SpinState:
    """Extremal-weight superposition reached from |j,j>_z via the y-axis twist.

    Under this package's phase conventions the quarter-period y-twist of
    |j,j>_z gives e^{-i pi/4}/sqrt(2) on m = +j and e^{+i pi/4}/sqrt(2) on
    m = -j for every integer j (relative phase e^{i pi/2}, lowest over
    highest weight); tests freeze this convention.
    """
    _require_integer(j)
    amps = np.zeros(j.dim, dtype=np.complex128)
    amps[-1] = np.exp(-1j * math.pi / 4.0) / math.sqrt(2.0)
    amps[0] = np.exp(1j * math.pi / 4.0) / math.sqrt(2.0)
    return SpinState(j, amps)


@dataclass(frozen=True)
class RotatedIdentityResult:
    """Fidelities for the two computation routes of the rotated-frame identity."""

    fidelity: float  # direct y-axis Hamiltonian route vs prediction
    conjugated_fidelity: float  # x-rotation conjugation route vs prediction
    path_agreement: float  # fidelity between the two final states


def verify_rotated_identity(j: HalfInteger, omega: float = 0.0) -> RotatedIdentityResult:
    """Drive |j,j>_z with the y-axis twist, both directly and by conjugation.

    Route one exponentiates omega * Jy + (lambda/2j) * Jy^2 directly; route
    two conjugates the z-axis evolution with the pi/2 x rotation.  Both are
    compared to `rotated_cat_prediction`; contract: all three fidelities
    >= 1 - 1e-10 for integer j when the omega gate passes.
    """
    _require_integer(j)
    spec_z = KerrHamiltonianSpec(j, omega=omega, lam=1.0, axis="z")
    spec_y = KerrHamiltonianSpec(j, omega=omega, lam=1.0, axis="y")
    _require_cleared_linear_phase(spec_z)

    start = weight_state(j, j.twice_value)
    direct = quarter_period_unitary(spec_y).apply(start)

    rx = x_rotation(j, math.pi / 2.0)
    conjugated = (rx @ quarter_period_unitary(spec_z) @ rx.dagger()).apply(start)

    target = rotated_cat_prediction(j)
    return RotatedIdentityResult(
        fidelity=abs(overlap(target, direct)),
        conjugated_fidelity=abs(overlap(target, conjugated)),
        path_agreement=abs(overlap(direct, conjugated)),
    )
