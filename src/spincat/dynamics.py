"""Nonlinear twisting dynamics and the two-component-cat analysis.

The Hamiltonian is H = omega * J_a + J_a^2 / 2j for a in {z, y}, with
period tau = 4 pi j.  A nonlinearity strength lambda on J_a^2 would only
set the time unit: at their quarter periods (omega, lambda) and
(omega / lambda, 1) reach the same state, so there is none.  After a
quarter period an initial coherent state |j; u, v> (integer j, axis z, and
the linear term's phase cleared mod 2pi) splits into the equal-weight
superposition

    e^{-i pi/4}/sqrt(2) |j; u, v>  +  (-1)^j e^{i pi/4}/sqrt(2) |j; u, -v>,

that is gamma and -gamma (`predicted_cat`).  The y-axis twist is this one
seen through a pi/2 x rotation, which only moves labels, so
`rotated_cat_prediction` is derived from it.  Half-integer j does not fit
this two-label form (the components come out rotated by pi/2 in phi
instead); `cat_scan` measures that case rather than asserting it.

`_quarter_period_cats` is the one cat route behind `cat_scan`, the `cat`
command and verify's cat section: it refuses a pole label, builds |j,gamma>
and |j,-gamma> in one `_amplitudes` call (`_two_component_basis`), and per
omega twists the first and fits the result onto both (`_fit`, which
`fit_two_component` also runs).  It hands that basis to its caller, so
verify reads `predicted_cat`'s two coefficients on the columns the fit read
and builds no coherent state of its own.

The axis-z Hamiltonian is diagonal in |j,m>_z, so `quarter_period_evolve`
multiplies amplitudes by phases and builds no d x d complex unitary.
`_rotated_identity_routes` applies the y twist as a function of Jy and
conjugates the diagonal twist by the pi/2 x rotation, both through
`su2._apply_function`.  `kerr_hamiltonian` is the dense Hamiltonian; the
tests exponentiate it as the reference for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CatDecomposition, _amplitudes, as_label, rotate_label
from .errors import HalfIntegerUnsupported, NonFinitePhase, PoleLabel, ZeroSpin, _choice, _finite
from .halfint import HalfInteger, _spin
from .su2 import SpinOperator, SpinState, _apply_function, _weights, jy, jz, rotate, weight_state

_POLE_REFUSAL = "need a label off the poles so the two components differ"


def _quarter_period(j: HalfInteger) -> float:
    """tau/4 = pi j, a quarter of the twist's period 4 pi j."""
    if _spin(j).twice_value == 0:
        raise ZeroSpin("j = 0 has no twisting dynamics")
    return 2.0 * math.pi * j.twice_value / 4.0


def kerr_hamiltonian(j: HalfInteger, omega: float = 0.0, axis: str = "z") -> SpinOperator:
    """omega * J_a + J_a^2 / 2j for a = axis, z or y; ValueError for an omega that is not a finite real."""
    _choice(axis, ("z", "y"), "axis")
    _finite(omega, ValueError, "omega")
    _quarter_period(j)  # raises ZeroSpin at j = 0
    gen = (jz if axis == "z" else jy)(j).matrix
    return SpinOperator(j, omega * gen + (1.0 / j.twice_value) * gen @ gen)


def _quarter_phases(j: HalfInteger, omega: float, m: np.ndarray) -> np.ndarray:
    """exp(-i h tau/4), h = omega m + m^2 / 2j, over the eigenvalues m of J_a.

    An omega that is not a finite real raises `NonFinitePhase` before any
    phase is formed, and so does a finite omega so large that the phase
    overflows.
    """
    quarter = _quarter_period(j)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _finite(omega, NonFinitePhase, "omega") * m + (1.0 / j.twice_value) * (m * m)
        phase = -1j * h * quarter
    if not np.isfinite(phase).all():
        raise NonFinitePhase(f"omega={omega} makes the quarter-period phase overflow at j={j}")
    return np.exp(phase)


def quarter_period_evolve(state: SpinState, omega: float = 0.0) -> SpinState:
    """Evolve `state` for one quarter period of the axis-z twist.

    The evolution is diagonal, so its phases multiply the amplitudes
    elementwise; an omega that is not finite, or whose phase overflows,
    raises `NonFinitePhase`.
    """
    m = _weights(state.j.twice_value)[0]
    return SpinState(state.j, _quarter_phases(state.j, omega, m) * state.amplitudes)


def predicted_cat(j: HalfInteger, gamma) -> CatDecomposition:
    """The two-component decomposition produced by a quarter period (integer j)."""
    if not _spin(j).is_integer:
        raise HalfIntegerUnsupported(f"j={j} is half-odd-integer; use cat_scan for the exploratory case")
    label = as_label(gamma)
    sign = -1.0 if (j.twice_value // 2) % 2 else 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return CatDecomposition(
        j,
        (
            (label, inv_sqrt2 * np.exp(-1j * math.pi / 4.0)),
            (label.negated(), sign * inv_sqrt2 * np.exp(1j * math.pi / 4.0)),
        ),
    )


def _two_component_basis(j: HalfInteger, gamma) -> np.ndarray:
    """The d x 2 basis |j,gamma>, |j,-gamma> of a two-component cat, each column a SpinState's.

    Both come from one `_amplitudes` call; column 0 is
    `coherent_expansion(j, gamma).amplitudes` bit for bit.  Raises
    `PoleLabel` at either pole, where they coincide, before any amplitude is built.
    """
    label = as_label(gamma)
    if label.u_abs * label.v_abs == 0:
        raise PoleLabel(_POLE_REFUSAL)
    rows = _amplitudes(_spin(j).twice_value, [label, label.negated()])
    return np.column_stack([SpinState(j, row).amplitudes for row in rows])


def _fit(basis: np.ndarray, psi: np.ndarray) -> tuple[float, complex, complex]:
    """(fidelity, c_plus, c_minus) of the least-squares fit of psi onto the basis' two columns.

    Raises `PoleLabel` when the columns coincide to rounding (rank below 2).
    """
    coeffs, _, rank, _ = np.linalg.lstsq(basis, psi, rcond=None)
    if rank < 2:
        raise PoleLabel(_POLE_REFUSAL)
    return float(np.linalg.norm(basis @ coeffs)), complex(coeffs[0]), complex(coeffs[1])


def fit_two_component(state: SpinState, gamma) -> tuple[float, complex, complex]:
    """Least-squares decomposition of `state` onto span{|j,gamma>, |j,-gamma>}.

    Returns (fidelity, c_plus, c_minus) where fidelity is the norm of the
    orthogonal projection of `state` onto the span.  Independent of the
    prediction route: nothing here assumes how `state` was produced.
    Raises `PoleLabel` where the components coincide: at or within rounding of either pole.
    """
    return _fit(_two_component_basis(state.j, gamma), state.amplitudes)


def _quarter_period_cats(j: HalfInteger, gamma, omegas):
    """Yield (state, fidelity, c_plus, c_minus, basis) per omega: |j,gamma> twisted for a quarter period, and its fit.

    The one cat route: the label is judged and |j,gamma>, |j,-gamma> are
    built once, on the first item; each omega then costs a twist and a fit.
    Every item carries that one d x 2 `basis`, the columns the coefficients
    refer to, so a caller reads a prediction on it instead of building it again.
    """
    basis = _two_component_basis(j, gamma)
    initial = SpinState(j, basis[:, 0])
    for omega in omegas:
        state = quarter_period_evolve(initial, omega)
        yield (state, *_fit(basis, state.amplitudes), basis)


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
    fidelity 1, half-integer rows record whatever the fit finds; both lists may be any iterables.
    """
    omega_list = list(omega_list)
    return [
        CatScanRow(j.twice_value, omega, fid, c_plus, c_minus)
        for j in j_list
        for omega, (_, fid, c_plus, c_minus, _) in zip(omega_list, _quarter_period_cats(j, gamma, omega_list))
    ]


def rotated_cat_prediction(j: HalfInteger) -> SpinState:
    """The quarter-period y-twist of |j,j>_z, derived on labels (integer j).

    The y-twist is the z-twist conjugated by R = exp(-i (pi/2) Jx): R applied
    to the predicted cat of R^dag |pole>, each label rotated back by pi/2.
    That is e^{-i pi/4}/sqrt(2) on m = +j and e^{+i pi/4}/sqrt(2) on m = -j,
    to rounding, for every integer j; tests freeze this convention.
    """
    cat = predicted_cat(j, rotate_label(math.inf, "x", -math.pi / 2.0))
    back = tuple((rotate_label(label, "x", math.pi / 2.0), c) for label, c in cat.components)
    return CatDecomposition(j, back).materialize()


def _rotated_identity_routes(j: HalfInteger, omega: float) -> tuple[SpinState, SpinState]:
    """The quarter-period y-twist of |j,j>_z, (directly, by conjugation).

    Directly: omega Jy + Jy^2 / 2j is a function of Jy, so `_apply_function`
    applies its phases on Jx's eigenvalues w.  By conjugation: the diagonal
    z-axis twist between the pi/2 x rotation and its inverse.  Neither
    exponentiates a matrix.  The rotation takes Jz to -Jy, so the second
    route twists with -omega; the two agree once the linear phase clears.
    """
    top = weight_state(j, j.twice_value)
    direct = SpinState(j, _apply_function(j, "y", lambda w: _quarter_phases(j, omega, w), top.amplitudes))
    turned = rotate(top, "x", -math.pi / 2.0)
    conjugated = rotate(quarter_period_evolve(turned, omega), "x", math.pi / 2.0)
    return direct, conjugated
