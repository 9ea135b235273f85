"""Exact arithmetic over Z_d and d-th roots of unity, plus index bookkeeping.

Every label, measurement outcome, and phase exponent in this package is an
integer reduced mod d. Complex values only appear when a root of unity is
actually evaluated; symbolic code paths keep phases as integer exponents so
equality checks stay exact.

floor_mod and floor_divmod are the reductions of integer arrays: r = x -
(x // d) * d, and q = x // d beside it. On an int64 array numpy's x % d and
np.divmod(x, d) do one hardware division per element, while x // d by a
scalar divides through libdivide's multiply and shift. On 16,384 entries
(numpy 2.4.6, one core of a 2-CPU Xeon host) % took 77-97 us and np.divmod
73 us, against 13 us for // and 27 us for q and r together. On about 100
entries the pair costs more than % (1.8 us against 1.0 us), so Python ints
and short arrays off the hot paths keep %. base_digits splits integers
into digits with one floor_divmod by the base per digit: x // places %
base, the form it replaces, also divides each entry in hardware, by its
own place value.
"""

from __future__ import annotations

import cmath

import numpy as np

MAX_DIMENSION = 16

# Dense-oracle memory cap: a state may hold at most 2**24 complex amplitudes.
MAX_AMPLITUDES = 1 << 24


def validate_dimension(d: int) -> int:
    """Check 2 <= d <= MAX_DIMENSION and return d."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if not 2 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [2, {MAX_DIMENSION}], got {d}")
    return d


def floor_mod(x, d):
    """x mod d for a positive divisor d, as x - (x // d) * d: Python's x % d,
    elementwise on arrays, in x's dtype for integer arrays.

    x may be an int, a numpy integer, or an integer or object array. The
    result is exact: numpy's // floors, and where -(x // d) * d wraps past
    int64 (x within d of -2**63) the wrap is modulo 2**64, as is the
    addition of x, and the remainder lies in 0..d-1. On numpy scalars and
    0-d arrays numpy warns of that wrap (RuntimeWarning); on arrays it does
    not. The quotient's array becomes the remainder, so an array x costs
    one new array, as x % d does.
    """
    r = x // d
    r *= -d
    r += x
    return r


def floor_divmod(x, d):
    """(x // d, floor_mod(x, d)): Python's divmod(x, d) for a positive
    divisor d, as floor_mod computes it, keeping the quotient."""
    q = x // d
    r = q * -d
    r += x
    return q, r


def base_digits(x, base: int, count: int) -> np.ndarray:
    """The count lowest base-`base` digits of each integer of the 1-D array
    x, big-endian: shape (len(x), count), by one floor_divmod per digit."""
    digits = np.empty((len(x), count), dtype=int)
    for column in range(count - 1, -1, -1):
        x, digits[:, column] = floor_divmod(x, base)
    return digits


def zeta(d: int, t: int) -> complex:
    """Return zeta^t where zeta = exp(2*pi*i/d), periodic in t with period d."""
    validate_dimension(d)
    return cmath.exp(2j * cmath.pi * (t % d) / d)


def pack_index(d: int, digits) -> int:
    """Pack base-d digits big-endian: index = sum_i digits[i] * d**(n-1-i)."""
    validate_dimension(d)
    index = 0
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for dimension {d}")
        index = index * d + dig
    return index


def phase_exponent(d: int, z: complex) -> int:
    """Match a unit complex number to the nearest integer power of zeta.

    Raises if z is farther than 1e-9 from every zeta^t; used to read an
    exact phase exponent off a numerically computed amplitude.
    """
    validate_dimension(d)
    best = min(range(d), key=lambda t: abs(z - zeta(d, t)))
    if abs(z - zeta(d, best)) > 1e-9:
        raise ValueError(f"{z!r} is not a power of zeta for d={d} within 1e-9")
    return best
