"""Symbolic entanglement swapping over Z_d labels.

A Bell measurement on two particles drawn from different entangled
fragments collapses the pair into a Bell state and leaves the survivors in
one rewritten fragment. Three measured-pair configurations are supported,
each a closed-form rewrite certified against the dense engine:

  bell-bell    A = Psi(u1,u2) on (1,2), B = Psi(v1,v2) on (3,4), pair (1,4):
               measured (u1+k, v2+l) on (1,4), residual (v1-k, u2-l) on
               (3,2), phase zeta^(+kl).
  black-node   cat Psi(u1..un) on (1..n), Bell Psi(v,v') on (s,s'),
               pair (1, s'): measured (u1-k, v'+l) on (1,s'), residual cat
               (v+k, u2-l, ..., un-l) on (s,2..n), phase zeta^(-kl).
  white-node   Bell Psi(v,v') on (s,s'), cat Psi(u1..un), pair (s, m) for a
               white node m: measured (v-k, um-l) on (s,m), residual cat
               keeps its ordering with s' in slot m and labels
               (u1+k, ..., v'+l at m, ...), phase zeta^(+kl).

The three rows are one rewrite, black-node, with (k, l) read as (-k, l)
for bell-bell and as (k, -l) for white-node: the pair (p, q) is measured
as (a1-k, bm+l), and q's fragment (b1..bn) keeps its ordering, with b1+k on
its black node and p's survivors (labels a2-l, ...) in q's slot m, under
phase zeta^(-kl).

The measured pair is always (black node, white node) of two distinct
fragments. Amplitudes stay (1/sqrt(d))^scale * zeta^phase exactly, so the
engine tracks both as integers and never touches floating point.

bell_measure_block is this rewrite on label arrays: many rows on one
fragment layout, each row under its own outcome or under a table of them,
in one numpy pass. Its integer arithmetic, unreduced, is _swap_rewrite, the
one copy of the rules; bell_measure_block reduces its result mod d. Every
command rewrites through them: the dense protocol engine, the dense oracle
and verify call bell_measure_block, and the symbolic engine applies the
round matrix that _swap_rewrite builds on coefficient arrays
(protocol.round_matrix). bell_measure is bell_measure_block's one-row
call on a Register.

verify_swap_block checks these rewrites against dense amplitudes for a
block of label tuples: one bell_measure_block call rewrites every tuple
under all d^2 outcomes, each tuple sorts the nonzero amplitudes of both
sides of its outcome sum (cat_support) by index, equal indices in outcome
order, and np.bincount adds them in that order, as a dense rebuild does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .catbell import cat_state, cat_support, reduce_labels
from .core import floor_mod, validate_dimension, zeta
from .statevec import StateVector, checked_size, kron_rows, tensor


class UnsupportedConfigurationError(ValueError):
    """The measured pair does not match a supported swap configuration."""


class SwapOutcome(NamedTuple):
    k: int
    l: int


@dataclass(frozen=True)
class CatFragment:
    """One entangled block: ordered particles, labels (u1, ..., un) mod d.

    The first particle is the black node carrying the phase label u1; a
    Bell state is the two-particle case.
    """

    d: int
    particles: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        validate_dimension(self.d)
        object.__setattr__(self, "particles", tuple(self.particles))
        object.__setattr__(self, "labels", tuple(reduce_labels(self.d, self.labels).tolist()))
        if len(self.particles) < 2:
            raise ValueError("a fragment holds at least 2 particles")
        if len(set(self.particles)) != len(self.particles):
            raise ValueError(f"duplicate particle ids in {self.particles}")
        if len(self.labels) != len(self.particles):
            raise ValueError(f"{len(self.particles)} particles but "
                             f"{len(self.labels)} labels")

    @property
    def black_node(self) -> int:
        return self.particles[0]

    def to_state(self) -> StateVector:
        return cat_state(self.d, self.particles, self.labels)


@dataclass(frozen=True)
class Register:
    """Disjoint fragments plus the accumulated global phase and scale.

    phase_power is an exponent of zeta; scale_exponent counts powers of
    1/sqrt(d) picked up by measurements (two per Bell measurement), so the
    surviving branch has amplitude (1/sqrt(d))^scale * zeta^phase relative
    to the initial state.
    """

    d: int
    fragments: tuple[CatFragment, ...]
    phase_power: int = 0
    scale_exponent: int = 0

    def __post_init__(self):
        validate_dimension(self.d)
        object.__setattr__(self, "fragments", tuple(self.fragments))
        object.__setattr__(self, "phase_power", int(self.phase_power) % self.d)
        seen: set[int] = set()
        for fragment in self.fragments:
            if fragment.d != self.d:
                raise ValueError("fragment dimension differs from register")
            overlap = seen & set(fragment.particles)
            if overlap:
                raise ValueError(f"fragments share particles {sorted(overlap)}")
            seen |= set(fragment.particles)

    def fragment_of(self, particle: int) -> CatFragment:
        for fragment in self.fragments:
            if particle in fragment.particles:
                return fragment
        raise ValueError(f"particle {particle} not in register")

    def branch_probability(self) -> Fraction:
        return Fraction(1, self.d**self.scale_exponent)


# Signs that read a rule's (k, l) into the black-node rewrite, keyed by
# whether the fragments of p and of q are Bell pairs; cat-cat has no rule.
_RULE_SIGNS = {(True, True): (-1, 1), (False, True): (1, 1), (True, False): (1, -1)}


def bell_measure(register: Register, pair, outcome: SwapOutcome | None = None,
                 rng=None):
    """Bell-measure a (black node, white node) pair from distinct fragments.

    The one-row call of bell_measure_block. Returns (outcome, new register):
    the measured pair becomes a Bell fragment, the survivors one rewritten
    fragment, and the register phase and scale advance. The outcome is
    forced when given, otherwise drawn uniformly.
    """
    p, q = pair
    frag_p, frag_q = register.fragment_of(p), register.fragment_of(q)
    if frag_p is frag_q:
        raise UnsupportedConfigurationError(
            f"pair ({p}, {q}) lies inside a single fragment")
    d = register.d
    if outcome is None:
        outcome = np.random.default_rng(rng).integers(0, d, size=2)
    outcome = SwapOutcome(*reduce_labels(d, outcome).tolist())
    measured, residual, delta, particles = bell_measure_block(
        d, (frag_p.particles, frag_q.particles), (frag_p.labels, frag_q.labels),
        pair, outcome)
    rest = tuple(f for f in register.fragments
                 if f is not frag_p and f is not frag_q)
    after = Register(d, rest + (CatFragment(d, pair, measured.tolist()),
                                CatFragment(d, particles, residual.tolist())),
                     register.phase_power + int(delta),
                     register.scale_exponent + 2)
    return outcome, after


def bell_measure_block(d: int, fragments, labels, pair, outcomes, signs=None):
    """The swap rewrite of the module docstring on label arrays.

    fragments holds the particle tuples of p's and of q's fragment, shared
    by every row; labels holds their label arrays, shapes (..., len(p's))
    and (..., len(q's)); outcomes holds (k, l) pairs, shape (..., 2). The
    leading axes of all three broadcast against each other, so each row
    can carry its own outcome, or rows (R, 1, len) can meet a (K, 2)
    outcome table. signs reads (k, l) into the black-node rewrite as
    (sk * k, sl * l); it defaults to the rule's row of _RULE_SIGNS, the
    README convention. Returns (measured, residual, phase, particles): the
    measured pair's labels (..., 2), the residual fragment's labels
    (..., len(particles)), the phase delta of each outcome, shape
    outcomes.shape[:-1], and the residual fragment's particles. It is
    _swap_rewrite on the reduced labels and outcomes, reduced mod d.
    """
    outcomes = reduce_labels(d, outcomes)
    measured, residual, phase, particles = _swap_rewrite(
        fragments, [reduce_labels(d, x) for x in labels], pair, outcomes, signs)
    return floor_mod(measured, d), floor_mod(residual, d), floor_mod(phase, d), particles


def _swap_rewrite(fragments, labels, pair, outcomes, signs=None):
    """bell_measure_block's layout checks and integer arithmetic, unreduced,
    on integer arrays: the one copy of the swap rules. The labels are linear
    in the inputs, so on coefficient arrays, one leading row per input, they
    give the rewrite's integer matrix (protocol.round_matrix); the phase
    -k * l is bilinear, so there it is not the phase."""
    (p, q), (parts_p, parts_q) = pair, map(tuple, fragments)
    if set(parts_p) & set(parts_q):
        raise UnsupportedConfigurationError(
            f"fragments {parts_p} and {parts_q} share particles")
    if p != parts_p[0]:
        raise UnsupportedConfigurationError(
            f"particle {p} is not its fragment's black node")
    if q not in parts_q[1:]:
        raise UnsupportedConfigurationError(
            f"particle {q} must be a white node of {parts_q}")
    if len(parts_p) > 2 and len(parts_q) > 2:
        raise UnsupportedConfigurationError(
            "measuring across two fragments of 3+ particles is not supported")
    sk, sl = _RULE_SIGNS[len(parts_p) == 2, len(parts_q) == 2] if signs is None else signs
    k, l = sk * outcomes[..., 0], sl * outcomes[..., 1]
    (a, b), m = labels, parts_q.index(q)
    cut = m + len(parts_p) - 1  # p's survivors fill slots m..cut-1
    particles = parts_q[:m] + parts_p[1:] + parts_q[m + 1:]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], k.shape)
    measured = np.empty(lead + (2,), dtype=int)
    measured[..., 0] = a[..., 0] - k
    measured[..., 1] = b[..., m] + l
    residual = np.empty(lead + (len(particles),), dtype=int)
    residual[..., :m] = b[..., :m]
    residual[..., 0] += k
    residual[..., m:cut] = a[..., 1:] - l[..., None]
    residual[..., cut:] = b[..., m + 1:]
    return measured, residual, -k * l, particles


def to_statevector(register: Register) -> StateVector:
    """Unit-norm dense state of the register: fragment tensor times zeta^phase."""
    if not register.fragments:
        raise ValueError("register holds no fragments")
    state = register.fragments[0].to_state()
    for fragment in register.fragments[1:]:
        state = tensor(state, fragment.to_state())
    return StateVector(register.d, state.particles,
                       state.amps * zeta(register.d, register.phase_power))


RULES = ("bell", "black", "white")


def _swap_layout(rule: str, sizes, m: int | None):
    """Validate a swap check; return (fragment particle tuples, measured pair).

    sizes are the lengths of the two label tuples: (2, 2) for rule "bell",
    (n, 2) with n >= 3 for the cat rules.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule != "white" and m is not None:
        raise ValueError(f"rule {rule} measures no white-node position; got m={m}")
    size_a, size_b = sizes
    if rule == "bell":
        if size_a != 2 or size_b != 2:
            raise ValueError("rule bell takes two Bell label pairs")
        return ((1, 2), (3, 4)), (1, 4)
    n = size_a
    if n < 3:
        raise ValueError("cat rules need a cat of 3+ particles")
    if size_b != 2:
        raise ValueError("second label tuple must be a Bell pair")
    particles = (tuple(range(1, n + 1)), (n + 1, n + 2))
    if rule == "black":
        return particles, (1, n + 2)
    if m is None or not 2 <= m <= n:
        raise ValueError("rule white needs a white-node position m in 2..n")
    return particles, (n + 1, m)


def verify_swap_block(rule: str, d: int, rows, m: int | None = None) -> np.ndarray:
    """Check one swap rewrite for a block of label tuples against dense amplitudes.

    rows holds flat label tuples, shape (R, 4) for rule "bell" (two Bell
    pairs) and (R, n + 2) for the cat rules (cat, then Bell pair). For each
    row the two-fragment product state is rebuilt as its outcome sum: one
    bell_measure_block call rewrites every row under all d^2 outcomes, and
    each branch's fragments become cat amplitudes, times its phase and its
    1/d scale. Returns the maximum absolute amplitude deviation of each
    row, shape (R,).

    Each term of the sum is a Bell state times a cat, with d^2 nonzero
    amplitudes, so the sum runs on their indices only (cat_support). Each
    row sorts its terms, rhs then lhs, by index * (d**4 + d**2) + position;
    np.bincount adds each slot, a run of equal indices, in that (k, l)
    order, the float operations of a dense per-state rebuild, where the
    other terms add exact zeros. A row's deviation is therefore the dense
    one, bit for bit, and does not depend on the block it is in. The
    largest array holds R * (d**4 + d**2) entries.

    The check cannot detect a consistent relabelling of outcomes, such as a
    flipped sign of k or l in _RULE_SIGNS (the deviation stays about 1e-16):
    a relabelled outcome is the same measurement. Only the README table
    test, test_swap_rules_match_readme_table, pins the labels.
    """
    validate_dimension(d)
    rows = reduce_labels(d, rows)
    if rows.ndim != 2 or len(rows) == 0:
        raise ValueError("rows must be a non-empty 2-D label array, "
                         f"got shape {rows.shape}")
    fragments, pair = _swap_layout(rule, (rows.shape[1] - 2, 2), m)
    before = sum(fragments, ())
    checked_size(d, len(before))

    split = len(fragments[0])
    labels = [rows[:, None, :split], rows[:, None, split:]]
    if pair[0] not in fragments[0]:  # p's fragment comes first
        fragments, labels = fragments[::-1], labels[::-1]
    outcomes = np.array(list(product(range(d), repeat=2)))
    measured, residual, phases, particles = bell_measure_block(
        d, fragments, labels, pair, outcomes)

    # every index packs digits in the branches' particle order, so the lhs
    # cats take the place values of their particles there
    after = pair + particles
    places = d ** np.arange(len(after) - 1, -1, -1)
    lhs_places = places[[after.index(p) for p in before]]
    index_a, amps_a = cat_support(d, rows[:, :split], lhs_places[:split])
    index_b, amps_b = cat_support(d, rows[:, split:], lhs_places[split:])
    index_m, amps_m = cat_support(d, measured, places[:2])
    index_r, amps_r = cat_support(d, residual, places[2:])
    count, terms = len(rows), d ** 4 + d ** 2
    roots = np.array([zeta(d, t) for t in range(d)])[phases]
    scale = float(d) ** -1.0  # two factors of 1/sqrt(d) per Bell measurement
    rhs = kron_rows(amps_m, amps_r)  # (R, d^2 outcomes, d^2)
    rhs *= roots[:, None]
    rhs *= scale

    # a row's terms: the rhs in (k, l) order, then the lhs negated (adding
    # -x is subtracting x, bit for bit), each keyed index * terms + position
    values = np.concatenate([rhs.reshape(count, -1), -kron_rows(amps_a, amps_b)],
                            axis=1).reshape(-1)
    del rhs
    keys = np.concatenate(
        [(index_m[..., :, None] + index_r[..., None, :]).reshape(count, -1),
         (index_a[:, :, None] + index_b[:, None, :]).reshape(count, -1)], axis=1)
    keys = keys * terms + np.arange(terms)
    keys.sort(axis=1)  # bincount adds each slot, a run of equal indices, in this order
    index = keys // terms * terms
    keys -= index  # each term's position in its row
    new = np.ones(keys.shape, dtype=bool)  # a slot's first term
    np.not_equal(index[:, 1:], index[:, :-1], out=new[:, 1:])
    new[0, 0] = False  # slots count from 0
    slots = np.cumsum(new, out=index.reshape(-1))
    keys += np.arange(0, len(values), terms)[:, None]  # each term's place in values
    total = np.empty(slots[-1] + 1, dtype=complex)
    total.real = np.bincount(slots, values.real[keys.reshape(-1)])
    total.imag = np.bincount(slots, values.imag[keys.reshape(-1)])
    return np.maximum.reduceat(np.abs(total), slots[::terms])


def verify_swap_identity(rule: str, d: int, labels, m: int | None = None) -> float:
    """Check one swap rewrite against the dense engine: verify_swap_block
    on a single label tuple.

    labels is a pair of label tuples: (bell, bell) for rule "bell", (cat,
    bell) for rules "black" and "white"; any other rule raises ValueError.
    Only rule "white" takes m, the measured white-node position in 2..n.
    Returns the maximum absolute amplitude deviation.
    """
    labels_a, labels_b = map(tuple, labels)
    _swap_layout(rule, (len(labels_a), len(labels_b)), m)
    return float(verify_swap_block(rule, d, [labels_a + labels_b], m=m)[0])
