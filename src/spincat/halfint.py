"""Exact spin labels.

Spin quantum numbers are integers or half-odd-integers.  Storing 2j as a
plain int keeps every label exact; floats only ever appear in matrix
entries and `m_values`, never in bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Non-negative integer or half-odd-integer j, stored as 2j."""

    twice_value: int

    def __post_init__(self):
        if not isinstance(self.twice_value, (int, np.integer)) or isinstance(
            self.twice_value, bool
        ):
            raise TypeError(f"twice_value must be an int, got {self.twice_value!r}")
        if self.twice_value < 0:
            raise ValueError(f"twice_value must be >= 0, got {self.twice_value}")
        object.__setattr__(self, "twice_value", int(self.twice_value))

    @classmethod
    def from_value(cls, value: float) -> "HalfInteger":
        twice = round(2 * value)
        if abs(2 * value - twice) > 1e-12:
            raise ValueError(f"{value} is not an integer or half-odd-integer")
        return cls(twice)

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


def m_values(j: HalfInteger) -> np.ndarray:
    """Weight eigenvalues m = -j..+j as floats, ascending."""
    tj = j.twice_value
    return np.arange(-tj, tj + 1, 2) / 2.0
