import numpy as np
import pytest

from spincat import HalfInteger, m_values


def test_basic_properties():
    j = HalfInteger(3)
    assert j.value == 1.5
    assert j.dim == 4
    assert not j.is_integer
    assert j.casimir_eigenvalue() == 1.5 * 2.5
    assert str(j) == "3/2"
    assert str(HalfInteger(4)) == "2"


def test_from_value():
    assert HalfInteger.from_value(2.5).twice_value == 5
    assert HalfInteger.from_value(3).twice_value == 6
    with pytest.raises(ValueError):
        HalfInteger.from_value(0.3)


def test_negative_rejected():
    with pytest.raises(ValueError):
        HalfInteger(-1)
    with pytest.raises(TypeError):
        HalfInteger(1.5)


def test_m_values_ascending():
    assert np.array_equal(m_values(HalfInteger(2)), [-1.0, 0.0, 1.0])
    assert np.array_equal(m_values(HalfInteger(1)), [-0.5, 0.5])
