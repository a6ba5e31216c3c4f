"""Exception types shared across the package, and its three input rules.

Every input the pipeline takes is one of three kinds, each checked by one
rule that raises the caller's chosen error type:

* `_size`: an int at least some bound: 2j, N, 2m, grid sizes;
* `_finite`: a finite real scalar: angles, omega, the N00N phase;
* `_choice`: one name from a short tuple: an axis, the gamma choice.

bool is refused by `_size` and `_finite` though Python counts it a number.
A refusal shows the value it refuses by `_shown`, which describes an int
too long to print (past 4300 digits) by its sign and digit count.  A j,
a spin label rather than a number, is checked apart: `halfint._spin`
refuses any j that is not a HalfInteger with TypeError.
The one array input, `metrology.noon_signal`'s phase shift, is judged
where it is read, with `_finite`'s two messages.
`tests/test_contract.py` holds each public name to these rules.
"""
import math
from numbers import Integral, Real

import numpy as np


class SpinCatError(Exception):
    """Base class for every error this package raises on purpose."""


class NonHermitianInput(SpinCatError):
    """A generator expected to be Hermitian failed the residual gate.

    Raised only by the dense reference (`su2.expm_hermitian`), which the
    tests use as their oracle.
    """


class IrrepMismatch(SpinCatError):
    """Two objects carry different spin labels (different 2j)."""


class PoleLabel(SpinCatError):
    """The label is on a pole the operation excludes: gamma = inf for the rotation
    from |j,-j>, gamma = 0 or inf for a cat of |gamma> and |-gamma> (one state there, to rounding)."""


class ZeroSpin(SpinCatError):
    """j = 0 has no nonlinear dynamics; the evolution period is undefined."""


class NonFinitePhase(SpinCatError):
    """The quarter-period twist has no finite phase: omega is NaN or infinite
    (or not a real number), or a finite omega makes h_m * tau/4 overflow the float range."""


class HalfIntegerUnsupported(SpinCatError):
    """The requested identity is only guaranteed for integer j."""


class InvalidN(SpinCatError):
    """Total photon number must be a positive integer."""


class StateFileError(SpinCatError):
    """A state file is missing, malformed, or fails its norm check."""


def _shown(value) -> str:
    """repr(value) for a refusal message, or the sign and digit count of an int too long for one.

    Past 4300 digits (Python's default limit) an int has no repr, and asking
    for it raises ValueError in place of the refusal being built.
    """
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # the float log can land a digit off
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _size(value, least: int, error: type[Exception], what: str) -> int:
    """`value` as an int >= least, else `error`; bool is refused though it is Integral."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {_shown(value)}")
    return int(value)


def _finite(value, error: type[Exception], what: str):
    """`value` as given if it is a finite real scalar, a 0-d array included; else `error`.

    bool, complex, arrays and non-numeric values are refused first, and an
    int or fraction past the float range counts as not finite.  A Python or
    numpy scalar is judged by `math.isfinite` alone, with no numpy call.
    """
    scalar = isinstance(value, float) or isinstance(value, Real)  # float first: the ABC check costs ~10x more
    if isinstance(value, bool) or not (scalar or (isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf")):
        raise error(f"{what} must be real, got {value!r}")
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # no repr here: past 4300 digits an int has none
        raise error(f"{what} is past the float range, so it is not finite") from None
    raise error(f"{what} {value!r} is not finite")


def _choice(value, allowed: tuple, what: str):
    """ValueError unless `value` is one of `allowed`."""
    if value not in allowed:
        raise ValueError(f"{what} must be {' or '.join(map(repr, allowed))}, got {_shown(value)}")
