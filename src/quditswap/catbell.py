"""Generalized Bell and cat states over qudits.

A cat state on n particles with labels (u1, ..., un) is

    (1/sqrt(d)) sum_j zeta^(j*u1) |j, j+u2, ..., j+un>

with every label and every addition mod d. The first particle (black node)
carries the phase label u1; the others (white nodes) carry offsets. A Bell
state is the n = 2 case. For each n the d^n label tuples form an
orthonormal basis.

cat_support evaluates the closed form for a whole block of label tuples:
the d nonzero amplitudes of each cat and their indices, computed with the
block's rows innermost in memory and returned as views in the block's
shape. cat_amplitudes
scatters them into dense rows, and cat_state is its one-row call wrapped
as a StateVector.
"""

from __future__ import annotations

import math

import numpy as np

from .core import floor_mod, validate_dimension, zeta
from .statevec import (StateVector, apply_controlled_shift, apply_hadamard,
                       basis_state, checked_size)


def cat_state(d: int, particles, labels) -> StateVector:
    """Cat state |Psi(u1..un)> on the particles: the one-row call of cat_amplitudes."""
    particles, labels = tuple(particles), tuple(labels)
    if len(labels) != len(particles):
        raise ValueError(f"{len(particles)} particles but {len(labels)} labels")
    return StateVector(d, particles, cat_amplitudes(d, labels))


def is_integer(u) -> bool:
    """An int or numpy integer, not a bool: the element check of labels and ids."""
    return isinstance(u, (int, np.integer)) and not isinstance(u, bool)


def reduce_labels(d: int, labels) -> np.ndarray:
    """Integer labels mod d as an int array, exact past int64: the one label
    reducer. Only a signed integer array skips is_integer on each element
    (numpy infers [2**63 + 1, -1] as float64 and [True, 2] as integers),
    which refuses a float, complex, bool or string label with ValueError."""
    if isinstance(labels, np.ndarray) and labels.dtype.kind == "i":
        return floor_mod(labels, d)
    values = np.asarray(labels, dtype=object)
    if not all(map(is_integer, values.flat)):
        raise ValueError(f"labels must be integers, got {labels!r}")
    return (values % d).astype(int)


def cat_support(d: int, labels, places=None):
    """The d nonzero amplitudes of each cat in a block: (index, values).

    labels holds integers in shape (..., n); both results have shape
    (..., d), one entry per j of the closed form. index packs the support
    digits (j, j+u2, ..., j+un) with the place values places: by default
    d**(n-1), ..., d, 1 (big-endian), so each row ascends with j; others
    put the cat's particles at other positions of a larger register.

    The sums and the root gather run with the rows innermost in memory, on
    the label axes reversed: (n, ...) in, (d, ...) out, so each numpy loop
    runs over the block's rows, not over d or n entries. The results are
    views of that layout with the axes reversed back: their .T is C-ordered.
    """
    validate_dimension(d)
    labels = np.ascontiguousarray(reduce_labels(d, labels).T)
    n = labels.shape[0]
    if n < 2:
        raise ValueError("a cat state needs at least 2 particles")
    places = d ** np.arange(n - 1, -1, -1) if places is None else np.asarray(places)
    j = np.arange(d).reshape((d,) + (1,) * (labels.ndim - 1))
    digits = floor_mod(j[:, None] + labels[1:], d)  # (d, n - 1, ...)
    digits *= places[1:].reshape((-1,) + j.shape[1:])
    index = digits.sum(axis=1)
    index += j * places[0]
    scale = 1.0 / math.sqrt(d)
    roots = np.array([scale * zeta(d, t) for t in range(d)])
    return index.T, roots[floor_mod(j * labels[0], d)].T


def cat_amplitudes(d: int, labels) -> np.ndarray:
    """Closed-form cat amplitudes for a block of label tuples: cat_support
    scattered into rows.

    labels holds integers in shape (..., n); the result has shape (..., d**n).
    """
    index, values = cat_support(d, labels)
    size = checked_size(d, np.shape(labels)[-1])
    amps = np.zeros(index.shape[:-1] + (size,), dtype=complex)
    np.put_along_axis(amps, index, values, axis=-1)
    return amps


def bell_state(d: int, particles, labels) -> StateVector:
    """Two-particle case |Psi(u1, u2)> = (1/sqrt(d)) sum_j zeta^(j*u1)|j, j+u2>."""
    particles = tuple(particles)
    if len(particles) != 2:
        raise ValueError("a Bell state has exactly 2 particles")
    return cat_state(d, particles, labels)


def cat_via_circuit(d: int, particles, digits) -> StateVector:
    """Build the cat state by circuit: Hadamard on the first qudit of
    |u1, ..., un>, then a controlled shift from it onto each of the others.

    Agrees with cat_state(d, particles, digits) amplitude for amplitude.
    """
    particles = tuple(particles)
    digits = tuple(reduce_labels(d, digits).tolist())
    if len(particles) < 2:
        raise ValueError("a cat state needs at least 2 particles")
    state = basis_state(d, particles, digits)
    state = apply_hadamard(state, particles[0])
    for target in particles[1:]:
        state = apply_controlled_shift(state, particles[0], target)
    return state


def expand_basis_in_bell(d: int, digits) -> list[tuple[complex, tuple[int, int]]]:
    """Expand |j, k> = (1/sqrt(d)) sum_u zeta^(-j*u) |Psi(u, k-j)>.

    Returns the d (coefficient, (u1, u2)) terms: the two-digit case of
    expand_basis_in_cat.
    """
    j, k = digits
    return expand_basis_in_cat(d, (j, k))


def expand_basis_in_cat(d: int, digits) -> list[tuple[complex, tuple[int, ...]]]:
    """Expand |u1, ..., un> = (1/sqrt(d)) sum_j zeta^(-j*u1) |Psi(j, u2-u1, ..., un-u1)>."""
    validate_dimension(d)
    digits = tuple(reduce_labels(d, digits).tolist())
    if len(digits) < 2:
        raise ValueError("need at least 2 digits")
    u1 = digits[0]
    offsets = tuple((u - u1) % d for u in digits[1:])
    scale = 1.0 / math.sqrt(d)
    return [(scale * zeta(d, -j * u1), (j,) + offsets) for j in range(d)]
