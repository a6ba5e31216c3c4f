import numpy as np

from spincat import HalfInteger, m_values


def test_basic_properties():
    j = HalfInteger(3)
    assert j.value == 1.5
    assert j.dim == 4
    assert not j.is_integer
    assert j.casimir_eigenvalue() == 1.5 * 2.5
    assert str(j) == "3/2"
    assert str(HalfInteger(4)) == "2"


def test_m_values_ascending():
    assert np.array_equal(m_values(HalfInteger(2)), [-1.0, 0.0, 1.0])
    assert np.array_equal(m_values(HalfInteger(1)), [-0.5, 0.5])
