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

The axis-z Hamiltonian is diagonal in |j,m>_z, so `quarter_period_evolve`
multiplies amplitudes by phases and builds no d x d complex unitary, and
`quarter_period_unitary` on axis z is the diagonal of those same phases.
`x_rotation` is V e^{-i angle w} V^T from Jx's real eigensystem (w, V).
Only the axis-y `quarter_period_unitary` exponentiates a dense Hamiltonian
with `expm_hermitian`; it is the reference for `verify_rotated_identity`,
whose two routes apply the y twist in Jy's eigenbasis D V and conjugate the
diagonal twist by the pi/2 x rotation, both as products with V.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CatDecomposition, _binomial_weights, _with_phase, as_label, coherent_expansion, overlap, rotate_label
from .errors import HalfIntegerUnsupported, NonFinitePhase, ZeroSpin
from .halfint import HalfInteger, m_values
from .su2 import _MINUS_I_POWERS, SpinOperator, SpinState, _jx_eigensystem, _jx_function, expm_hermitian, jy, jz, rotate, weight_state

_OMEGA_GATE_TOL = 1e-9


def _quarter_period(j: HalfInteger) -> float:
    """tau/4 = pi j, a quarter of the twist's period 4 pi j."""
    if j.twice_value == 0:
        raise ZeroSpin("j = 0 has no twisting dynamics")
    return 2.0 * math.pi * j.twice_value / 4.0


def kerr_hamiltonian(j: HalfInteger, omega: float = 0.0, axis: str = "z") -> SpinOperator:
    """omega * J_a + J_a^2 / 2j for a = axis, z or y."""
    if axis not in ("z", "y"):
        raise ValueError(f"axis must be 'z' or 'y', got {axis!r}")
    _quarter_period(j)  # raises ZeroSpin at j = 0
    gen = (jz if axis == "z" else jy)(j).matrix
    return SpinOperator(j, omega * gen + (1.0 / j.twice_value) * gen @ gen)


def _quarter_phases(j: HalfInteger, omega: float, m=None) -> np.ndarray:
    """exp(-i h tau/4), h = omega m + m^2 / 2j, over the eigenvalues m of J_a.

    By default m = -j..j, and this is the axis-z quarter twist's diagonal.
    An omega so large that this phase overflows raises `NonFinitePhase`.
    """
    quarter = _quarter_period(j)
    if m is None:
        m = m_values(j)
    with np.errstate(over="ignore", invalid="ignore"):
        h = omega * m + (1.0 / j.twice_value) * (m * m)
        phase = -1j * h * quarter
    if not np.isfinite(phase).all():
        raise NonFinitePhase(f"omega={omega} makes the quarter-period phase overflow at j={j}")
    return np.exp(phase)


def quarter_period_unitary(j: HalfInteger, omega: float = 0.0, axis: str = "z") -> SpinOperator:
    """exp(-i H tau/4) as an operator.

    Axis z is the diagonal of `_quarter_phases`; axis y exponentiates the
    dense `kerr_hamiltonian` with `expm_hermitian`.
    """
    if axis == "z":
        return SpinOperator(j, np.diag(_quarter_phases(j, omega)))
    return expm_hermitian(kerr_hamiltonian(j, omega, axis), _quarter_period(j))


def quarter_period_evolve(state: SpinState, omega: float = 0.0) -> SpinState:
    """Evolve `state` for one quarter period of the axis-z twist.

    The evolution is diagonal, so its phases multiply the amplitudes
    elementwise; an overflowing phase raises `NonFinitePhase`.
    """
    return SpinState(state.j, _quarter_phases(state.j, omega) * state.amplitudes)


def _require_cleared_linear_phase(j: HalfInteger, omega: float):
    """The two-component identities need omega * tau/4 = 0 (mod 2pi)."""
    residue = math.remainder(omega * _quarter_period(j), 2.0 * math.pi)
    if abs(residue) > _OMEGA_GATE_TOL:
        raise ValueError(
            f"omega={omega} leaves linear phase {residue:.3e} (mod 2pi); "
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
        j,
        (
            (label, inv_sqrt2 * np.exp(-1j * math.pi / 4.0)),
            (label.negated(), sign * inv_sqrt2 * np.exp(1j * math.pi / 4.0)),
        ),
    )


def verify_cat_identity(j: HalfInteger, gamma, omega: float = 0.0) -> float:
    """Fidelity of the quarter-period state against `predicted_cat`.

    Contract: >= 1 - 1e-10 for integer j whenever the omega gate passes.
    """
    _require_integer(j)
    _require_cleared_linear_phase(j, omega)
    return _cat_fidelity(quarter_period_evolve(coherent_expansion(j, gamma), omega), gamma)


def _cat_fidelity(evolved: SpinState, gamma) -> float:
    """|<evolved | predicted_cat(j, gamma)>| for a quarter-period state."""
    return abs(overlap(evolved, predicted_cat(evolved.j, gamma).materialize()))


def fit_two_component(state: SpinState, gamma) -> tuple[float, complex, complex]:
    """Least-squares decomposition of `state` onto span{|j,gamma>, |j,-gamma>}.

    Returns (fidelity, c_plus, c_minus) where fidelity is the norm of the
    orthogonal projection of `state` onto the span.  Independent of the
    prediction route: nothing here assumes how `state` was produced.
    """
    label = as_label(gamma)
    if label.u_abs * label.v_abs == 0:
        raise ValueError("need a label off the poles so the two components differ")
    # |-v| = |v|, so both components share one `_binomial_weights` row; each
    # column is a SpinState's, as `coherent_expansion` gives it.
    radial = _binomial_weights(state.j.twice_value, label.u_abs, label.v_abs)
    basis = np.column_stack([SpinState(state.j, _with_phase(radial, lbl)).amplitudes for lbl in (label, label.negated())])
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
            evolved = quarter_period_evolve(coherent_expansion(j, gamma), omega)
            fid, c_plus, c_minus = fit_two_component(evolved, gamma)
            rows.append(CatScanRow(j.twice_value, omega, fid, c_plus, c_minus))
    return rows


def x_rotation(j: HalfInteger, angle: float) -> SpinOperator:
    """exp(-i * angle * Jx) = V e^{-i angle w} V^T, from Jx's real eigensystem."""
    return SpinOperator(j, _jx_function(j, lambda w: np.exp(-1j * angle * w)))


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


@dataclass(frozen=True)
class RotatedIdentityResult:
    """Fidelities for the two computation routes of the rotated-frame identity."""

    fidelity: float  # direct y-axis Hamiltonian route vs prediction
    conjugated_fidelity: float  # x-rotation conjugation route vs prediction
    path_agreement: float  # fidelity between the two final states


def _rotated_identity_routes(j: HalfInteger, omega: float) -> tuple[SpinState, SpinState]:
    """The quarter-period y-twist of |j,j>_z, (directly, by conjugation).

    Directly: Jy = D Jx D^dag with D = diag((-i)^k), as in `rotate`, so the
    y-axis Hamiltonian has eigenvectors D V and eigenvalues
    omega w + w^2 / 2j, (w, V) Jx's eigensystem, and the state is
    D V e^{-i tau/4 (omega w + w^2/2j)} V^T D^dag |j,j>.  By conjugation: the
    diagonal z-axis twist between the pi/2 x rotation and its inverse.
    Both are O(d^2) products with V; neither exponentiates a matrix.  The
    rotation takes Jz to -Jy, so the second route twists with -omega; the
    two agree once the linear phase clears.
    """
    w, v = _jx_eigensystem(j.twice_value)
    d = _MINUS_I_POWERS[np.arange(j.dim) % 4]
    # V^T D^dag |j,j> is the last row of V times conj(D)'s last entry.
    c = _quarter_phases(j, omega, w) * v[-1] * d[-1].conjugate()
    direct = SpinState(j, d * (v @ c.real + 1j * (v @ c.imag)))

    turned = rotate(weight_state(j, j.twice_value), "x", -math.pi / 2.0)
    conjugated = rotate(quarter_period_evolve(turned, omega), "x", math.pi / 2.0)
    return direct, conjugated


def verify_rotated_identity(j: HalfInteger, omega: float = 0.0) -> RotatedIdentityResult:
    """Drive |j,j>_z with the y-axis twist, both directly and by conjugation.

    Route one applies omega * Jy + Jy^2 / 2j in Jy's eigenbasis; route two
    conjugates the diagonal z-axis evolution with the pi/2 x rotation
    (`_rotated_identity_routes`).  Both are compared to
    `rotated_cat_prediction`; contract: all three fidelities >= 1 - 1e-10
    for integer j when the omega gate passes.
    """
    _require_integer(j)
    _require_cleared_linear_phase(j, omega)
    direct, conjugated = _rotated_identity_routes(j, omega)
    target = rotated_cat_prediction(j)
    return RotatedIdentityResult(
        fidelity=abs(overlap(target, direct)),
        conjugated_fidelity=abs(overlap(target, conjugated)),
        path_agreement=abs(overlap(direct, conjugated)),
    )
