import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditswap.core import (MAX_DIMENSION, pack_index, phase_exponent,
                            validate_dimension, zeta)


def test_zeta_fixed_points():
    assert zeta(2, 1) == pytest.approx(-1)
    assert zeta(4, 1) == pytest.approx(1j)
    assert zeta(3, 3) == pytest.approx(1)


def test_zeta_periodicity():
    for d in range(2, MAX_DIMENSION + 1):
        for t in range(-2 * d, 2 * d + 1):
            assert zeta(d, t) == pytest.approx(zeta(d, t + d), abs=1e-12)


@given(st.integers(2, MAX_DIMENSION), st.integers(-50, 50), st.integers(-50, 50))
def test_zeta_product_law(d, t, s):
    assert abs(zeta(d, t) * zeta(d, s) - zeta(d, t + s)) < 1e-12


def test_pack_index_examples():
    assert pack_index(3, [1, 0, 2]) == 11
    assert pack_index(2, [0, 0, 0]) == 0
    # big-endian packing is a bijection from digit tuples onto range(d**n)
    for d in range(2, 5):
        for n in range(4):
            packed = [pack_index(d, digits)
                      for digits in itertools.product(range(d), repeat=n)]
            assert packed == list(range(d**n))



def test_pack_unpack_round_trip():
    # numpy's C-order unravel is the big-endian inverse of pack_index
    for d in range(2, 6):
        for n in range(1, 7):
            for index in range(d**n):
                digits = np.unravel_index(index, (d,) * n)
                assert pack_index(d, [int(x) for x in digits]) == index


def test_pack_unpack_digit_round_trip():
    for d in (2, 3, 5):
        for digits in itertools.product(range(d), repeat=3):
            index = pack_index(d, digits)
            assert tuple(int(x) for x in np.unravel_index(index, (d,) * 3)) == digits
            assert index == np.ravel_multi_index(digits, (d,) * 3)

def test_pack_rejects_bad_digits():
    with pytest.raises(ValueError):
        pack_index(3, [0, 3])
    with pytest.raises(ValueError):
        pack_index(2, [-1])


def test_validate_dimension_bounds():
    assert validate_dimension(2) == 2
    assert validate_dimension(MAX_DIMENSION) == MAX_DIMENSION
    for bad in (1, 0, -3, MAX_DIMENSION + 1):
        with pytest.raises(ValueError):
            validate_dimension(bad)
    with pytest.raises(ValueError):
        validate_dimension(True)


def test_phase_exponent_recognizes_roots():
    for d in (2, 3, 5, 12):
        for t in range(d):
            assert phase_exponent(d, zeta(d, t)) == t


def test_phase_exponent_rejects_non_phases():
    with pytest.raises(ValueError):
        phase_exponent(4, 0.5)
    with pytest.raises(ValueError):
        phase_exponent(3, cmath.exp(0.3j))
