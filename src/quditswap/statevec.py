"""Dense state-vector engine for qudit registers: the brute-force oracle.

States are flat complex arrays over an explicit ordered tuple of particle
ids, big-endian (the first listed particle is the most significant base-d
digit, matching left-to-right ket notation). All operations are pure; input
states are never mutated.

Every dense measurement of the protocol runs on cat_overlaps, one pass
over the whole Bell basis of a measured (black, white) pair for a block of
cat-times-Bell states, each given by its d^2 nonzero amplitudes, residuals
in a given order; every Kronecker product, of states or of row blocks, is
kron_rows. Nothing here samples outcomes.
checked_size refuses any array over the cap before it is built; block_rows
sizes every block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_AMPLITUDES, floor_divmod, floor_mod, pack_index, validate_dimension

# project_onto flags outcomes below this probability as absent post-states
# (avoids renormalizing an orthogonal branch).
PROB_FLOOR = 1e-12

# Amplitudes per array of a block of rows: verify tuples, rounds, branches.
BLOCK_AMPLITUDES = 1 << 14


def checked_size(d: int, n: int) -> int:
    """Amplitude count d**n of n qudits, checked against MAX_AMPLITUDES.

    Builders call it before allocating, so nothing over the cap is allocated.
    """
    size = d**n
    if size > MAX_AMPLITUDES:
        raise ValueError(f"state of {n} dimension-{d} qudits needs {size} "
                         f"amplitudes, above the {MAX_AMPLITUDES} cap")
    return size


def block_rows(d: int, qudits: int) -> int:
    """Rows of d**qudits amplitudes per block, at least one; checked_size first."""
    return max(1, BLOCK_AMPLITUDES // checked_size(d, qudits))


@dataclass(frozen=True)
class StateVector:
    """Pure state of len(particles) qudits, each of dimension d.

    amps has length d**n indexed by pack_index over the particle ordering.
    Treated as immutable: operations return fresh arrays.
    """

    d: int
    particles: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        validate_dimension(self.d)
        object.__setattr__(self, "particles", tuple(self.particles))
        if len(set(self.particles)) != len(self.particles):
            raise ValueError(f"duplicate particle ids in {self.particles}")
        size = checked_size(self.d, len(self.particles))
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return len(self.particles)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def axis_of(self, particle: int) -> int:
        try:
            return self.particles.index(particle)
        except ValueError:
            raise ValueError(f"particle {particle} not in state {self.particles}") from None

    def tensorized(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length d per particle."""
        return self.amps.reshape([self.d] * self.n)


def basis_state(d: int, particles, digits) -> StateVector:
    """Computational basis vector |digits[0], digits[1], ...>."""
    particles = tuple(particles)
    digits = tuple(digits)
    if len(digits) != len(particles):
        raise ValueError(f"{len(particles)} particles but {len(digits)} digits")
    amps = np.zeros(checked_size(d, len(particles)), dtype=complex)
    amps[pack_index(d, digits)] = 1.0
    return StateVector(d, particles, amps)


def hadamard_matrix(d: int) -> np.ndarray:
    """Generalized Hadamard H[i, j] = zeta^(i*j) / sqrt(d)."""
    validate_dimension(d)
    ij = np.outer(np.arange(d), np.arange(d))
    return np.exp(2j * np.pi * ij / d) / np.sqrt(d)


def apply_hadamard(state: StateVector, particle: int) -> StateVector:
    """Apply the generalized Hadamard to one qudit."""
    axis = state.axis_of(particle)
    t = state.tensorized()
    t = np.moveaxis(np.tensordot(hadamard_matrix(state.d), t, axes=(1, axis)), 0, axis)
    return StateVector(state.d, state.particles, t.reshape(-1))


def apply_controlled_shift(state: StateVector, control: int, target: int) -> StateVector:
    """Apply |i>|j> -> |i>|j + i> with the given control/target."""
    if control == target:
        raise ValueError("control and target must be distinct particles")
    caxis = state.axis_of(control)
    taxis = state.axis_of(target)
    t = state.tensorized().copy()
    sub_taxis = taxis - 1 if taxis > caxis else taxis
    for i in range(state.d):
        sl = [slice(None)] * state.n
        sl[caxis] = i
        t[tuple(sl)] = np.roll(t[tuple(sl)], i, axis=sub_taxis)
    return StateVector(state.d, state.particles, t.reshape(-1))


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (..., x) and (..., y) amplitudes, a new (..., x*y)."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (-1,))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; particle lists concatenate, amplitudes Kronecker."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    overlap = set(a.particles) & set(b.particles)
    if overlap:
        raise ValueError(f"particle sets overlap: {sorted(overlap)}")
    checked_size(a.d, a.n + b.n)
    return StateVector(a.d, a.particles + b.particles, kron_rows(a.amps, b.amps))


def permute_to(state: StateVector, particles) -> StateVector:
    """Reorder the particle listing (same physical state, permuted axes)."""
    particles = tuple(particles)
    if sorted(particles) != sorted(state.particles):
        raise ValueError(f"{particles} is not a permutation of {state.particles}")
    perm = [state.axis_of(p) for p in particles]
    t = np.transpose(state.tensorized(), perm)
    return StateVector(state.d, particles, t.reshape(-1))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> over a shared particle set (orderings may differ)."""
    if set(a.particles) != set(b.particles):
        raise ValueError("states are over different particle sets")
    return complex(np.vdot(a.amps, permute_to(b, a.particles).amps))


def project_onto(state: StateVector, reference: StateVector):
    """Project a particle subset of `state` onto the unit state `reference`.

    Returns (probability, post) where post is the renormalized residual on
    the complementary particles (None when probability < PROB_FLOOR; a
    zero-particle state when the reference covers everything).
    """
    if reference.d != state.d:
        raise ValueError(f"dimension mismatch: {state.d} vs {reference.d}")
    missing = set(reference.particles) - set(state.particles)
    if missing:
        raise ValueError(f"reference particles {sorted(missing)} not in state")
    if abs(reference.norm() - 1.0) > 1e-9:
        raise ValueError("reference state must have unit norm")

    ref_axes = list(range(reference.n))
    state_axes = [state.axis_of(p) for p in reference.particles]
    residual = np.tensordot(reference.tensorized().conj(), state.tensorized(),
                            axes=(ref_axes, state_axes)).reshape(-1)
    probability = float(np.sum(np.abs(residual) ** 2))
    if probability < PROB_FLOOR:
        return probability, None
    rest = tuple(p for p in state.particles if p not in reference.particles)
    post = StateVector(state.d, rest, residual / np.sqrt(probability))
    return probability, post


def cat_overlaps(d: int, particles, index, values, pair, rest):
    """Overlaps of cat-times-Bell states with all d^2 Bell states on a (black, white) pair.

    index and values (B, d^2) hold B states' nonzero amplitudes, indices
    packed big-endian over particles. rest orders the other particles and
    must list exactly those, and each u2 of the pair's digits (j, j + u2)
    must hold d entries of distinct indices over rest, as a cat times a Bell
    pair measured on one particle of each does (else ValueError). One sort
    by (u2, index over rest) gives residuals (B, d, d), each u2's indices
    ascending, and overlaps (B, d, d, d), <Psi(u1, u2)|state_b> at
    residuals[b, u2] in overlaps[b, u1, u2], one term of the DFT over j each,

        <Psi(u1, u2)|psi> = (1/sqrt(d)) sum_j zeta^(-j*u1) psi[j, j+u2, ...]
    """
    particles, order = tuple(particles), tuple(pair) + tuple(rest)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError(f"a Bell basis needs 2 distinct particles, got {pair}")
    if sorted(order) != sorted(particles):
        raise ValueError(f"pair {pair} and rest {tuple(rest)} do not split "
                         f"the state's particles {particles}")
    index, values = np.asarray(index), np.asarray(values)
    if index.ndim != 2 or index.shape[1] != d * d or values.shape != index.shape:
        raise ValueError(f"expected (B, {d * d}) indices and amplitudes, "
                         f"got shapes {index.shape} and {values.shape}")
    places = d ** np.arange(len(order) - 1, -1, -1)
    order_places = places[[particles.index(p) for p in order]]
    digits = floor_mod(index[..., None] // order_places, d)
    keys = (floor_mod(digits[..., 1] - digits[..., 0], d) * places[1]
            + digits[..., 2:] @ places[2:])
    sort = np.argsort(keys, axis=1)
    sort += np.arange(0, sort.size, d * d)[:, None]  # flat positions: one take per array
    keys, j, values = keys.take(sort), digits[..., 0].take(sort), values.take(sort)
    u2, residuals = floor_divmod(keys, places[1])
    if np.any(u2 != np.arange(d * d) // d) or np.any(keys[:, 1:] <= keys[:, :-1]):
        raise ValueError("each u2 must hold d entries of distinct residual indices")
    overlaps = hadamard_matrix(d).conj()[np.arange(d)[:, None, None], j.reshape(-1, 1, d, d)]
    return residuals.reshape(-1, d, d), overlaps * values.reshape(-1, 1, d, d)
