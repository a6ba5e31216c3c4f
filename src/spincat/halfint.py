"""Exact spin labels.

Spin quantum numbers are integers or half-odd-integers.  Storing 2j as a
plain int keeps every label exact; floats only ever appear in matrix
entries and `m_values`, never in bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _shown


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Non-negative integer or half-odd-integer j, stored as 2j."""

    twice_value: int

    def __post_init__(self):
        if not isinstance(self.twice_value, (int, np.integer)) or isinstance(
            self.twice_value, bool
        ):
            raise TypeError(f"twice_value must be an int, got {_shown(self.twice_value)}")
        if self.twice_value < 0:
            raise ValueError(f"twice_value must be >= 0, got {_shown(self.twice_value)}")
        object.__setattr__(self, "twice_value", int(self.twice_value))

    @property
    def value(self) -> float:
        return self.twice_value / 2.0

    @property
    def dim(self) -> int:
        """Dimension of the spin-j representation, 2j + 1."""
        return self.twice_value + 1

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def casimir_eigenvalue(self) -> float:
        """j(j + 1)."""
        return self.value * (self.value + 1.0)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def _spin(j) -> HalfInteger:
    """`j` itself if it is a HalfInteger, else TypeError, the type HalfInteger raises for a 2j that is not an int.

    The one check of a j argument: an exact type test, so an int, None or a
    float is refused before any of its attributes is read.
    """
    if type(j) is not HalfInteger:
        raise TypeError(f"j must be a HalfInteger, got {_shown(j)}")
    return j


def m_values(j: HalfInteger) -> np.ndarray:
    """Weight eigenvalues m = -j..+j as floats, ascending; TypeError unless j is a HalfInteger."""
    tj = _spin(j).twice_value
    return np.arange(-tj, tj + 1, 2) / 2.0
