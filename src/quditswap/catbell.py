"""Generalized Bell and cat states over qudits.

A cat state on n particles with labels (u1, ..., un) is

    (1/sqrt(d)) sum_j zeta^(j*u1) |j, j+u2, ..., j+un>

with every label and every addition mod d. The first particle (black node)
carries the phase label u1; the others (white nodes) carry offsets. A Bell
state is the n = 2 case. For each n the d^n label tuples form an
orthonormal basis.

cat_state builds one state with a d-step loop; cat_amplitudes builds a
whole block of them with one scatter. Both give the same bits. The loop
stays for single states because the block form's fixed numpy cost makes a
block of one about twice as slow, and callers such as the oracle walk
build thousands of single cats.
"""

from __future__ import annotations

import math

import numpy as np

from .core import pack_index, validate_dimension, zeta
from .statevec import (StateVector, apply_controlled_shift, apply_hadamard,
                       basis_state, checked_size)


def cat_state(d: int, particles, labels) -> StateVector:
    """Closed-form cat state |Psi(u1, ..., un)> on the given particles."""
    validate_dimension(d)
    particles = tuple(particles)
    labels = tuple(int(u) % d for u in labels)
    n = len(particles)
    if n < 2:
        raise ValueError("a cat state needs at least 2 particles")
    if len(labels) != n:
        raise ValueError(f"{n} particles but {len(labels)} labels")
    amps = np.zeros(checked_size(d, n), dtype=complex)
    scale = 1.0 / math.sqrt(d)
    for j in range(d):
        digits = (j,) + tuple((j + u) % d for u in labels[1:])
        amps[pack_index(d, digits)] = scale * zeta(d, j * labels[0])
    return StateVector(d, particles, amps)


def cat_amplitudes(d: int, labels) -> np.ndarray:
    """Closed-form cat amplitudes for a block of label tuples.

    labels is an int array of shape (..., n); the result has shape
    (..., d**n), and each row equals cat_state(d, particles, row).amps.
    """
    validate_dimension(d)
    labels = np.asarray(labels, dtype=int) % d
    n = labels.shape[-1]
    if n < 2:
        raise ValueError("a cat state needs at least 2 particles")
    size = checked_size(d, n)
    # support digits (j, j+u2, ..., j+un), packed big-endian
    offsets = labels.copy()
    offsets[..., 0] = 0
    j = np.arange(d)
    digits = (j[:, None] + offsets[..., None, :]) % d
    index = digits @ (d ** np.arange(n - 1, -1, -1))
    scale = 1.0 / math.sqrt(d)
    roots = np.array([scale * zeta(d, t) for t in range(d)])
    amps = np.zeros(labels.shape[:-1] + (size,), dtype=complex)
    np.put_along_axis(amps, index, roots[j * labels[..., :1] % d], axis=-1)
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
    digits = tuple(int(u) % d for u in digits)
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
    digits = tuple(int(u) % d for u in digits)
    if len(digits) < 2:
        raise ValueError("need at least 2 digits")
    u1 = digits[0]
    offsets = tuple((u - u1) % d for u in digits[1:])
    scale = 1.0 / math.sqrt(d)
    return [(scale * zeta(d, -j * u1), (j,) + offsets) for j in range(d)]
