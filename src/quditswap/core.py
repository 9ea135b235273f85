"""Exact arithmetic over Z_d and d-th roots of unity, plus index bookkeeping.

Every label, measurement outcome, and phase exponent in this package is an
integer reduced mod d. Complex values only appear when a root of unity is
actually evaluated; symbolic code paths keep phases as integer exponents so
equality checks stay exact.
"""

from __future__ import annotations

import cmath

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


def phase_exponent(d: int, z: complex, tol: float = 1e-9) -> int:
    """Match a unit complex number to the nearest integer power of zeta.

    Raises if z is farther than tol from every zeta^t; used to read an exact
    phase exponent off a numerically computed amplitude.
    """
    validate_dimension(d)
    best = min(range(d), key=lambda t: abs(z - zeta(d, t)))
    if abs(z - zeta(d, best)) > tol:
        raise ValueError(f"{z!r} is not a power of zeta for d={d} within {tol}")
    return best
