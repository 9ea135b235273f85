import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditswap.core import (MAX_DIMENSION, base_digits, floor_divmod, floor_mod,
                            pack_index, phase_exponent, validate_dimension, zeta)

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# int64 values, with the ends of the range and their neighbours drawn often
INT64 = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])


@st.composite
def divisors(draw, limit=INT64_MAX):
    """A dimension d in 2..MAX_DIMENSION or one of its place values d**k
    up to limit."""
    d = draw(st.integers(2, MAX_DIMENSION))
    top = max(k for k in range(1, 200) if d ** k <= limit)
    return d ** draw(st.integers(1, top))


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


@settings(max_examples=300, deadline=None)
@given(st.lists(INT64, min_size=1, max_size=40), divisors())
def test_floor_mod_and_divmod_on_int64_arrays(values, divisor):
    # numpy's // floors; past int64 the product q * d wraps, modulo 2**64 as
    # the sum that follows, so every remainder is exact, near -2**63 too
    x = np.array(values, dtype=np.int64)
    (q, r), alone = floor_divmod(x, divisor), floor_mod(x, divisor)
    assert q.dtype == r.dtype == alone.dtype == np.int64
    assert q.tolist() == [v // divisor for v in values]
    assert r.tolist() == alone.tolist() == [v % divisor for v in values]
    assert x.tolist() == values  # the operand is left as it was


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2**100, 2**100), min_size=1, max_size=20),
       divisors(limit=2**100))
def test_floor_mod_and_divmod_on_object_arrays(values, divisor):
    # integers past int64, as reduce_labels holds them, in an object array
    x = np.array(values, dtype=object)
    (q, r), alone = floor_divmod(x, divisor), floor_mod(x, divisor)
    assert q.dtype == r.dtype == alone.dtype == object
    assert q.tolist() == [v // divisor for v in values]
    assert r.tolist() == alone.tolist() == [v % divisor for v in values]


@settings(max_examples=300, deadline=None)
@given(INT64, st.integers(-2**100, 2**100), divisors())
def test_floor_mod_and_divmod_on_scalars(value, big, divisor):
    # a Python int of any size, a numpy int64 and a 0-d int64 array, whose
    # results numpy hands back as numpy scalars. numpy checks scalar
    # arithmetic for overflow, and warns of the wrap of q * d within d of
    # -2**63, which the remainder survives; the check is off here only
    assert floor_divmod(big, divisor) == divmod(big, divisor)
    assert floor_mod(big, divisor) == big % divisor
    for x in (np.int64(value), np.array(value, dtype=np.int64)):
        with np.errstate(over="ignore"):
            (q, r), alone = floor_divmod(x, divisor), floor_mod(x, divisor)
        assert type(q) is type(r) is type(alone) is np.int64
        assert (int(q), int(r)) == divmod(value, divisor) and alone == r


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 256), st.integers(1, 8), st.data())
def test_base_digits_are_the_big_endian_digits(base, count, data):
    # bases up to 256 cover the oracle's outcome codes, base d^2 at d = 16
    top = min(base ** count, 2**63) - 1
    values = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=30))
    digits = base_digits(np.array(values, dtype=np.int64), base, count)
    assert digits.shape == (len(values), count) and digits.dtype == np.int64
    for value, row in zip(values, digits.tolist()):
        assert all(0 <= digit < base for digit in row)
        assert sum(digit * base ** (count - 1 - i) for i, digit in enumerate(row)) == value
