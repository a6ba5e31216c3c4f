"""Exception types shared across the package."""


class SpinCatError(Exception):
    """Base class for every error this package raises on purpose."""


class NonHermitianInput(SpinCatError):
    """A generator expected to be Hermitian failed the residual gate."""


class IrrepMismatch(SpinCatError):
    """Two objects carry different spin labels (different 2j)."""


class PoleLabel(SpinCatError):
    """The label is on a pole the operation excludes: gamma = inf for the rotation
    from |j,-j>, gamma = 0 or inf for a cat of |gamma> and |-gamma> (one state there, to rounding)."""


class ZeroSpin(SpinCatError):
    """j = 0 has no nonlinear dynamics; the evolution period is undefined."""


class NonFinitePhase(SpinCatError):
    """The quarter-period twist phase h_m * tau/4 overflows the float range."""


class HalfIntegerUnsupported(SpinCatError):
    """The requested identity is only guaranteed for integer j."""


class InvalidN(SpinCatError):
    """Total photon number must be a positive integer."""


class StateFileError(SpinCatError):
    """A state file is missing, malformed, or fails its norm check."""
