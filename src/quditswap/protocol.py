"""n-party secret sharing over qudits via entanglement swapping.

Setup: an n-particle cat state Psi(u1, ..., un) plus one Bell pair
Psi(v_i, v'_i) per party, all labels public. Party 1 (Alice) holds the cat
black node and swaps her Bell pair in through it; each party i >= 2 swaps
theirs in through white node i. Alice's measured Bell labels

    key = (u1 - k1, v'1 + l1)

form the shared secret, and the final cat labels

    announced = (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln)

are published. Any single party recovers the second key dit from its own
outcome plus the announcement; the first key dit needs every k_i, so it is
recoverable only by all parties 2..n pooling their shares, and the
posterior for any strict subset is exactly uniform.

Particle ids: cat particle i is i (1..n); party i's Bell pair sits on
(n + 2i - 1, n + 2i).

Both engines rewrite labels with _party_rewrite: bell_measure_block on
the black node's fragment first, under the measuring party's role signs,
_ROLE_SIGNS, so every step reads its outcome in the protocol convention
above, at n = 2 too. Rounds run in blocks through round_blocks on either
engine, which yields integer field arrays, the one round record;
run_round is a block of one, turned into a Transcript. One array
recovery, recover_rounds, checks every recovery identity and the
announcement of a block of rounds; the one-view recoveries and
transcript_to_json_dict are its one-row calls, and round_records fills
one template from its rows into the protocol report's records, each
",\n", four spaces and its JSON, as the command writes them (and
transcript_to_json_dict parses one): a chunk of rows is one byte array, the
template's text with NUL-padded slots, filled by one gather from the digits
of range(d) (other values raise ValueError), whose bytes less the NULs,
ASCII and no more than a block of BLOCK_AMPLITUDES complex amplitudes, go
out as they are. collusion_counts reads the same arrays for a coalition's
view of the first key dit; collusion_posterior is its one-row call.

The symbolic engine is one integer matmul per block: a round's labels are
linear over Z_d in its inputs, so one matrix, round_matrix(n), maps each
round's cat labels, Bell pairs and outcomes to its announcement, key and
final Bell pairs, mod d; the phase is a quadratic form in the outcomes.
The dense engine and verify, which read amplitudes, are its independent
checks. The dense engine runs one step, _dense_step, on a block of
branches that share one particle order. A block is only their state: cat
labels, each cat's d nonzero amplitudes and their indices in register
order, and phase, one row per branch, rewritten under all d^2 outcomes
and measured by one cat_overlaps pass, residuals in the rewritten
register order, which reads every probability
and outcome from the amplitudes; each child built must be the cat of its
labels times zeta^phase (_check_children). A block of statevector rounds
starts with one branch per round, and its step builds only each round's
own outcome. The oracle runs the step once per cat-label class at each
level (_oracle_classes), since by that check branches with one cat's
labels hold one state up to a power of zeta. One integer walk,
_oracle_paths, then streams all (d^2)^n branches of one round as each
branch's class node at every level, read through the class tables. Two
consumers gather from the nodes: _oracle_blocks the five field arrays
that enumerate_oracle_branches turns into Transcripts, and
oracle_view_tally, which reads only party 1's measured code and the final
class, a coalition's view classes, ascending, and first-dit counts as
arrays; oracle_view_counts is that tally as a dict. Both refuse a d^(n+2)
step over the cap before any allocation and size blocks by block_rows(d, 3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from . import statevec
from .catbell import cat_state, cat_support, is_integer, reduce_labels
from .core import validate_dimension, zeta
from .statevec import StateVector, block_rows, cat_overlaps, checked_size, kron_rows
from .swapcalc import _swap_rewrite, bell_measure_block

ENGINES = ("symbolic", "statevector")
# Signs that read a party's (k_i, l_i) into the black-node rewrite, by role:
# party 1 measures (u1 - k, v' + l), parties 2..n measure (v - k, u_i - l).
_ROLE_SIGNS = ((1, 1), (1, -1))


class InsufficientSharesError(ValueError):
    """Pooled recovery was attempted without every party's share."""


def bell_particles(n: int, i: int) -> tuple[int, int]:
    return n + 2 * i - 1, n + 2 * i


def _check_parties(d: int, n) -> None:
    """validate_dimension(d); ValueError unless n is_integer and at least 2."""
    validate_dimension(d)
    if not (is_integer(n) and n >= 2):
        raise ValueError("the protocol needs at least 2 parties")


def _checked_seed(seed) -> int | None:
    """seed as a Python int, or None; ValueError unless None or a
    non-negative integer (is_integer, so no bool)."""
    if not (seed is None or is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be None or a non-negative integer, got {seed!r}")
    return None if seed is None else int(seed)


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    n: int
    cat_labels: tuple[int, ...]
    bell_labels: tuple[tuple[int, int], ...]
    seed: int | None = None

    def __post_init__(self):
        _check_parties(self.d, self.n)
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        cat, bells = (reduce_labels(self.d, x) for x in (self.cat_labels, self.bell_labels))
        if cat.shape != (self.n,):
            raise ValueError(f"{self.n} parties but {cat.size} cat labels")
        if bells.shape != (self.n, 2):
            raise ValueError(f"{self.n} parties but Bell labels of shape {bells.shape}")
        object.__setattr__(self, "cat_labels", tuple(cat.tolist()))
        object.__setattr__(self, "bell_labels", tuple(map(tuple, bells.tolist())))


@dataclass(frozen=True, slots=True)
class Transcript:
    """One round or oracle branch; outcomes are listed for parties 1..n."""

    config: ProtocolConfig
    engine: str
    outcomes: tuple[tuple[int, int], ...]
    announced: tuple[int, ...]
    key: tuple[int, int]
    final_bells: tuple[tuple[int, int], ...]
    phase_power: int
    probability: Fraction


@dataclass(frozen=True)
class PartyView:
    """What party i >= 2 knows: public setup, own outcome, own final Bell."""

    party: int
    d: int
    n: int
    cat_labels: tuple[int, ...]
    bell_labels: tuple[tuple[int, int], ...]
    outcome: tuple[int, int]
    final_bell: tuple[int, int]
    announced: tuple[int, ...]

    def __post_init__(self):
        _check_parties(self.d, self.n)
        if not (is_integer(self.party) and 2 <= self.party <= self.n):
            raise ValueError("views exist for parties 2..n only")


def initial_state(config: ProtocolConfig) -> tuple[StateVector, ...]:
    """Dense oracle of a round: the cat state, then party 1..n's Bell pairs."""
    d, n = config.d, config.n
    return (cat_state(d, range(1, n + 1), config.cat_labels),) + tuple(
        cat_state(d, bell_particles(n, i), config.bell_labels[i - 1])
        for i in range(1, n + 1))


def measurement_pair(n: int, i: int) -> tuple[int, int]:
    """Party i's measured (black node, white node) pair."""
    if i == 1:
        return 1, bell_particles(n, 1)[1]
    return bell_particles(n, i)[0], i


class _Block(NamedTuple):
    """B dense branches, or oracle class representatives, at one depth: the
    register's cat particles, its labels (B, len), each row's support, its d
    nonzero amplitudes' indices (B, d) packed in that particle order and
    their values (B, d), and each branch's power of zeta (B,)."""

    particles: tuple[int, ...]
    labels: np.ndarray
    index: np.ndarray
    values: np.ndarray
    phase: np.ndarray

    def rows(self, index) -> _Block:
        return _Block(self.particles, *(field[index] for field in self[1:]))


def _party_rewrite(d: int | None, n: int, i: int, particles, labels, bell, outcomes):
    """Party i's bell_measure_block on the cat (particles, labels) and its
    Bell pair: black node's fragment first, party i's pair and role signs.
    With d None it is _swap_rewrite, the same rewrite unreduced."""
    fragments = [(particles, labels), (bell_particles(n, i), bell)]
    if i > 1:  # party i's Bell pair holds the black node
        fragments.reverse()
    args = (*zip(*fragments), measurement_pair(n, i), outcomes, _ROLE_SIGNS[i > 1])
    return _swap_rewrite(*args) if d is None else bell_measure_block(d, *args)


def round_matrix(n: int) -> np.ndarray:
    """The symbolic round as one read-only integer matrix (5n, 3n), the same
    for every d.

    A round's inputs x, its cat labels, its Bell pairs (v_i, v'_i) and its
    outcomes (k_i, l_i), flat in party order, give x @ round_matrix(n) % d:
    the announced cat, the key pair and the final Bell pairs of parties
    2..n. It is built by running the n _party_rewrite steps, unreduced, on
    the columns of the identity, so its entries are in {-1, 0, 1}; it is
    cached per n and role signs."""
    _check_parties(2, n)  # any d: the matrix does not depend on it
    return _round_matrix(n, _ROLE_SIGNS)


@cache
def _round_matrix(n: int, signs) -> np.ndarray:
    """round_matrix under the role signs that _party_rewrite reads, signs
    (they key the cache only)."""
    inputs = np.eye(5 * n, dtype=int)
    labels, particles, pairs = inputs[:, :n], tuple(range(1, n + 1)), []
    bells, outcomes = (inputs[:, first:first + 2 * n].reshape(5 * n, n, 2)
                       for first in (n, 3 * n))
    for i in range(1, n + 1):
        measured, labels, _, particles = _party_rewrite(
            None, n, i, particles, labels, bells[:, i - 1], outcomes[:, i - 1])
        pairs.append(measured)
    matrix = np.concatenate([labels, *pairs], axis=1)
    matrix.flags.writeable = False
    return matrix


def _dense_start(d: int, n: int, cat) -> _Block:
    """The block of one branch per row of cat labels (B, n): the cat states."""
    return _Block(tuple(range(1, n + 1)), cat, *cat_support(d, cat),
                  np.zeros(len(cat), dtype=int))


def _dense_step(d: int, n: int, bell, i: int, block: _Block, keep=None):
    """Every outcome of party i's Bell measurement on every branch of a block.

    bell holds party i's Bell labels: one pair, or one per row (B, 2).
    _party_rewrite names each outcome's measured Bell state and rewritten
    cat; one cat_overlaps pass over the cat rows' support tensored with the
    Bell pair's gives every residual in that cat's particle order. Each
    (branch, outcome) probability, a sum of squares read from the (B, u1,
    u2) grid, is checked to be 1/d^2, and each branch's d^2 outcomes to name
    d^2 distinct Bell states, so they cover the grid. The B * d^2 children
    are in (branch, k, l) order, outcome (k, l) of branch b at row
    b * d^2 + k * d + l; returns those at the rows keep (default all),
    checked by _check_children, and each one's measured code u1 * d + u2.
    """
    count, bell = len(block.phase), np.reshape(bell, (-1, 1, 2))
    outcomes = np.stack(np.divmod(np.arange(d * d), d), axis=-1)
    measured, residual, delta, particles = _party_rewrite(
        d, n, i, block.particles, block.labels[:, None, :], bell, outcomes)
    bell_index, bell_values = cat_support(d, bell[:, 0])
    index, overlaps = cat_overlaps(
        d, block.particles + bell_particles(n, i),
        (block.index[:, :, None] * d * d + bell_index[:, None, :]).reshape(count, -1),
        kron_rows(block.values, bell_values), measurement_pair(n, i), particles)

    u1, u2 = measured[..., 0], measured[..., 1]
    grid = np.sum(overlaps.real ** 2 + overlaps.imag ** 2, axis=-1)
    probabilities = grid[np.arange(count)[:, None], u1, u2]
    wrong = np.argwhere(~(np.abs(probabilities - 1.0 / d**2) <= 1e-9))  # NaN fails
    if len(wrong):
        row, code = wrong[0]
        raise RuntimeError(f"party {i} outcome ({code // d},{code % d}) has probability "
                           f"{float(probabilities[row, code])}, not 1/d^2")
    named = u1 * d + u2
    cells = 1 + np.count_nonzero(np.diff(np.sort(named, axis=1), axis=1), axis=1)
    if cells.min() < d**2:
        raise RuntimeError(f"party {i}'s outcomes name {cells.min()} Bell states, not d^2")

    rows, codes = np.divmod(np.arange(count * d * d) if keep is None else keep, d * d)
    post = overlaps[rows, u1[rows, codes], u2[rows, codes]]
    post /= np.sqrt(probabilities[rows, codes])[:, None]
    children = _Block(particles, residual[rows, codes], index[rows, u2[rows, codes]], post,
                      (block.phase[rows] + delta[codes]) % d)
    _check_children(d, i, children, codes)
    return children, named[rows, codes]


def _check_children(d: int, i: int, children: _Block, codes) -> None:
    """RuntimeError unless each child of party i's step, of outcome code
    k * d + l in codes, is the cat of its rewritten labels times zeta^phase:
    cat_support's indices, ascending as the child's are, and its values
    times zeta^phase, each within 1e-9."""
    index, values = cat_support(d, children.labels)
    values *= np.array([zeta(d, t) for t in range(d)])[children.phase][:, None]
    close = np.abs(children.values - values) <= 1e-9  # NaN fails
    wrong = np.flatnonzero(~np.all((index == children.index) & close, axis=1))
    if len(wrong):
        code = codes[wrong[0]]
        raise RuntimeError(f"party {i} outcome ({code // d},{code % d}) is not the cat "
                           f"of its rewritten labels times zeta^phase")


def _dense_rounds(d: int, n: int, cat, bells, outcomes):
    """A block of rounds on the dense step: one branch per round, whose step
    builds and checks only each round's own outcome (k, l) child; the five
    field arrays _transcripts reads."""
    steps, block, codes = outcomes @ (d, 1), _dense_start(d, n, cat), []
    for i, chosen in enumerate((steps + np.arange(len(cat))[:, None] * d * d).T, 1):
        block, measured = _dense_step(d, n, bells[:, i - 1], i, block, chosen)
        codes.append(measured)
    return steps, block.labels, codes[0], np.stack(codes[1:], axis=1), block.phase


def _symbolic_rounds(d: int, n: int, cat, bells, outcomes):
    """A block of rounds as one matmul mod d by round_matrix(n); the fields
    _dense_rounds returns. The phase is the sum of each step's -k * l under
    its role signs, -(sk * k_i) * (sl * l_i)."""
    count = len(cat)
    signs = [sk * sl for sk, sl in (_ROLE_SIGNS[i > 1] for i in range(1, n + 1))]
    # the fields are allocated before the (R, 5n) inputs and their (R, 3n)
    # product, so those two are freed from the top of the heap instead of
    # leaving holes under the fields, which raised the command's peak RSS
    steps = outcomes @ (d, 1)
    announced, codes = np.empty((count, n), dtype=int), np.empty((count, n), dtype=int)
    phase = np.empty(count, dtype=int)
    inputs = np.concatenate([cat, bells.reshape(count, -1), outcomes.reshape(count, -1)],
                            axis=1)
    labels = inputs @ round_matrix(n)
    labels %= d
    announced[:] = labels[:, :n]
    np.matmul(labels[:, n:].reshape(count, n, 2), (d, 1), out=codes)
    np.remainder(-(outcomes[..., 0] * outcomes[..., 1]) @ signs, d, out=phase)
    return steps, announced, codes[:, 0], codes[:, 1:], phase


def _transcripts(configs, engine: str, d: int, n: int, steps, announced, key, finals,
                 phase) -> list[Transcript]:
    """Transcripts from a block's field arrays: outcome codes k * d + l
    (R, n), announced cats (R, n), key code (R,), final Bell codes (R, n - 1)
    and phase power (R,). Every label pair comes from one table of d^2
    tuples, shared by the block's transcripts."""
    pairs = list(product(range(d), repeat=2))
    probability = Fraction(1, d ** (2 * n))
    return [Transcript(config, engine, tuple(pairs[c] for c in outcome), tuple(labels),
                       pairs[code], tuple(pairs[c] for c in final), power, probability)
            for config, outcome, labels, code, final, power
            in zip(configs, *(field.tolist()
                              for field in (steps, announced, key, finals, phase)))]


def round_blocks(d: int, n: int, cat, bells, outcomes, engine: str = "symbolic"):
    """Run a block of R rounds of one d and n on either engine, as field arrays.

    cat holds each round's cat labels (R, n), bells its Bell label pairs
    (R, n, 2) and outcomes its (k_i, l_i) per party (R, n, 2), in the
    protocol convention. Yields, per sub-block in round order, its labels
    mod d and the five fields _transcripts reads: (cat, bells, (steps,
    announced, key, finals, phase)). The statevector engine refuses a
    d^(n+2) step over the cap (ValueError), runs sub-blocks of
    block_rows(d, 3) rounds, and checks every step of every round, all d^2
    outcomes, and each kept child's cat and phase from amplitudes; the
    symbolic engine runs the block as one.
    """
    _check_parties(d, n)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    cat, bells, outcomes = (reduce_labels(d, x) for x in (cat, bells, outcomes))
    if _round_shape(cat, bells) != n or outcomes.shape != bells.shape:
        raise ValueError(f"{n} parties but label shapes {cat.shape} and {bells.shape} "
                         f"and outcome shape {outcomes.shape}")
    if engine == "statevector":
        checked_size(d, n + 2)
    rows, run = ((block_rows(d, 3), _dense_rounds) if engine == "statevector"
                 else (max(1, len(cat)), _symbolic_rounds))
    for start in range(0, len(cat), rows):
        part = slice(start, start + rows)
        yield cat[part], bells[part], run(d, n, cat[part], bells[part], outcomes[part])


def run_round(config: ProtocolConfig, engine: str = "symbolic",
              forced_outcomes=None, rng=None) -> Transcript:
    """Execute one round: round_blocks on a block of one, as a Transcript.

    Each step takes forced_outcomes[i - 1], a (k_i, l_i) pair, or else its
    own draw rng.integers(0, d, size=2), recorded as drawn (rng falls back
    to config.seed), so a seed gives the same transcript on both engines.
    """
    if forced_outcomes is None:
        rng = np.random.default_rng(config.seed if rng is None else rng)
        forced_outcomes = [rng.integers(0, config.d, size=2) for _ in range(config.n)]
    (_, _, fields), = round_blocks(config.d, config.n, [config.cat_labels],
                                   [config.bell_labels], [forced_outcomes], engine)
    return _transcripts([config], engine, config.d, config.n, *fields)[0]


def make_party_views(transcript: Transcript) -> tuple[PartyView, ...]:
    config = transcript.config
    return tuple(
        PartyView(party=i, d=config.d, n=config.n, cat_labels=config.cat_labels,
                  bell_labels=config.bell_labels, outcome=transcript.outcomes[i - 1],
                  final_bell=transcript.final_bells[i - 2], announced=transcript.announced)
        for i in range(2, config.n + 1))


def _round_shape(cat, *fields) -> int:
    """The party count n of a block of R rounds' arrays: cat (R, n), then as
    many as given of bells (R, n, 2), steps (R, n), announced (R, n), key
    (R,) and finals (R, n - 1); ValueError on any other shape."""
    shapes = [np.shape(field) for field in (cat, *fields)]
    count, n = shapes[0] if len(shapes[0]) == 2 else (None, 0)
    expected = [(count, n), (count, n, 2), (count, n), (count, n), (count,), (count, n - 1)]
    if shapes != expected[:len(shapes)]:
        raise ValueError(f"round arrays of shapes {shapes}, expected {expected[:len(shapes)]}")
    return n


def recover_rounds(d: int, cat, bells, steps, announced, key, finals):
    """Every recovery of a block of R rounds, on round_blocks' arrays.

    cat (R, n) and bells (R, n, 2) hold the rounds' labels; steps (R, n),
    announced (R, n), key (R,) and finals (R, n - 1) are round_blocks'
    first four fields, with label pairs coded a * d + b; other shapes, or a d
    that validate_dimension refuses, raise ValueError. Party i >= 2 reads
    l_i = announced[i] - v'_i; its final Bell second label is u_i - l1 - l_i,
    so l1 follows, and v'1 is public. Its share is k_i = v_i - (final Bell
    first label); the announcement's first slot v1 + k1 + ... + kn then pins
    k1 once all of 2..n pool their shares.

    Returns per row the second key dit v'1 + l1 each party 2..n recovers
    alone (R, n - 1), the first key dit u1 - k1 they recover pooled (R,),
    and ok (R,): every recovery gives the key and the announcement is
    (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln).
    """
    validate_dimension(d)
    _round_shape(cat, bells, steps, announced, key, finals)
    (k, l), (final_k, final_l) = np.divmod(steps, d), np.divmod(finals, d)
    v, vp = bells[..., 0], bells[..., 1]
    second = (vp[:, :1] + cat[:, 1:] - (announced[:, 1:] - vp[:, 1:]) - final_l) % d
    k_1 = announced[:, 0] - v[:, 0] - np.sum(v[:, 1:] - final_k, axis=1)
    first = (cat[:, 0] - k_1) % d
    expected = np.concatenate([v[:, :1] + np.sum(k, axis=1, keepdims=True),
                               vp[:, 1:] + l[:, 1:]], axis=1) % d
    ok = ((first == key // d) & np.all(second == (key % d)[:, None], axis=1)
          & np.all(announced == expected, axis=1))
    return second, first, ok


def _recover_views(views):
    """recover_rounds on the one row that views of one round show: their
    public labels and announcement, and each view's final Bell in its
    party's column. A view holds no other party's final Bell, outcome or
    key: those stay 0, so only the viewing parties' dits are meaningful."""
    view = views[0]
    d, n = view.d, view.n
    finals = np.zeros((1, n - 1), dtype=int)
    for other in views:
        finals[0, other.party - 2] = reduce_labels(d, other.final_bell) @ (d, 1)
    return recover_rounds(d, reduce_labels(d, [view.cat_labels]),
                          reduce_labels(d, [view.bell_labels]), np.zeros((1, n), dtype=int),
                          reduce_labels(d, [view.announced]), np.zeros(1, dtype=int), finals)


def recover_second_dit(view: PartyView) -> int:
    """Party i alone reconstructs v'1 + l1 from its view: recover_rounds
    on the view's one row."""
    return int(_recover_views([view])[0][0, view.party - 2])


def recover_first_dit_pooled(views, announced) -> int:
    """All parties 2..n pool k_i shares to reconstruct u1 - k1: recover_rounds
    on the views' one row.

    Views that disagree on d, n, the labels or the announcement, or with the
    announced argument, raise ValueError. Views of different rounds that
    agree on all of these cannot be told apart: they are the views of one
    round with the same public data, and the dit returned is that round's.
    """
    views = tuple(views)
    if not views:
        raise InsufficientSharesError("no shares supplied")
    n = views[0].n
    public = {(v.d, v.n, v.cat_labels, v.bell_labels, v.announced) for v in views}
    if len(public) > 1 or tuple(announced) != views[0].announced:
        raise ValueError("views disagree with each other or with the announcement")
    contributed = sorted(view.party for view in views)
    duplicated = sorted({i for i in contributed if contributed.count(i) > 1})
    if duplicated:
        raise ValueError(f"duplicated shares from parties {duplicated}")
    if contributed != list(range(2, n + 1)):
        missing = sorted(set(range(2, n + 1)) - set(contributed))
        raise InsufficientSharesError(f"missing shares from parties {missing}")
    return int(_recover_views(views)[1][0])


def _coalition(n: int, known_parties) -> list[int]:
    """known_parties sorted without repeats; ValueError unless each is_integer in 2..n."""
    ids = list(known_parties)
    if not all(is_integer(i) and 2 <= i <= n for i in ids):
        raise ValueError(f"colluding parties must lie in 2..{n}")
    return sorted(set(map(int, ids)))


def collusion_counts(d: int, cat, bells, steps, announced, known_parties) -> np.ndarray:
    """Per round of a block, on round_blocks' cat, bells, steps and announced:
    how many choices of the missing parties' k_j give each first key dit
    u1 - k1 = base + (their sum), where the coalition, a strict subset of
    2..n, knows base = u1 - a1 + v1 + (its own k_i). Counts (R, d), one
    convolution with the uniform k_j per missing party, which flattens any base:
    uniform on any arrays, rounds or not (oracle_view_tally reads amplitudes).
    A d that validate_dimension refuses raises ValueError."""
    validate_dimension(d)
    n = _round_shape(cat, bells, steps, announced)
    known = _coalition(n, known_parties)
    if len(known) == n - 1:
        raise ValueError("every party 2..n is colluding; use recover_first_dit_pooled")
    k = steps // d
    base = (cat[:, 0] - announced[:, 0] + bells[:, 0, 0]
            + np.sum(k[:, [i - 1 for i in known]], axis=1)) % d
    counts = (base[:, None] == np.arange(d)).astype(int)
    for _ in range(n - 1 - len(known)):
        counts = sum(np.roll(counts, t, axis=1) for t in range(d))
    return counts


def collusion_posterior(d: int, transcript: Transcript, known_parties):
    """Exact posterior of the first key dit for a strict subset of parties:
    collusion_counts on the transcript's one row, as d Fractions summing
    to 1 (uniform whenever at least one party is missing)."""
    config = transcript.config
    if d != config.d:
        raise ValueError(f"dimension {d} differs from the transcript's {config.d}")
    cat, bells, (steps, announced, *_) = _row(transcript)
    counts = collusion_counts(d, cat, bells, steps, announced, known_parties)[0].tolist()
    return tuple(Fraction(c, sum(counts)) for c in counts)


def _class_step(d: int, n: int, bell, i: int, classes: _Block):
    """Party i's step on a level's cat-label classes: _dense_step once per
    class, in blocks of block_rows(d, 3) classes.

    Each child joins the class of its cat labels; the first child to land in
    a class is copied out as its representative. _dense_step checks every
    child to be the cat of its labels times zeta^phase, so by linearity of
    the step every branch of a class is its representative up to
    zeta^(phase power). Returns the next level's classes and the (3, C,
    d^2) tables of each (class, outcome)'s child class, measured Bell code
    u1 * d + u2 and phase delta.
    """
    rows, places = block_rows(d, 3), d ** np.arange(n - 1, -1, -1)
    slot = np.full(d ** n, -1)  # class of each packed cat-label tuple
    tables, kept, found = [], [], 0
    for start in range(0, len(classes.phase), rows):
        block = classes.rows(slice(start, start + rows))
        children, measured = _dense_step(d, n, bell, i, block)
        keys = children.labels @ places
        fresh, first = np.unique(keys, return_index=True)
        first = first[slot[fresh] < 0]  # the first child of each new class
        slot[keys[first]] = found + np.arange(len(first))
        kept.append(children.rows(first))
        found += len(first)
        delta = children.phase - np.repeat(block.phase, d * d)
        tables.append(np.reshape([slot[keys], measured, delta % d], (3, -1, d * d)))
    fields = (np.concatenate(field) for field in zip(*(block[1:] for block in kept)))
    return _Block(children.particles, *fields), np.concatenate(tables, axis=1)


def _oracle_classes(config: ProtocolConfig):
    """The oracle's class pass and its certificate: the final level's
    classes and the per-step class tables _class_step returns.

    The dense step runs once per cat-label class at each party step (at
    most d^n classes; _class_step), checking each step's 1/d^2
    probabilities on d^2 distinct labels and that every child is the cat of
    its labels times zeta^phase, so every class member is too. That covers
    every branch: the walk is an exhaustive cross-engine certificate.
    """
    d, n = config.d, config.n
    # the oracle refuses more than the amplitude cap of branches, d^(2n);
    # as n >= 2, this also checks each d^(n+2) step
    checked_size(d, 2 * n)
    classes, tables = _dense_start(d, n, np.array([config.cat_labels])), []
    for i in range(1, n + 1):
        classes, table = _class_step(d, n, config.bell_labels[i - 1], i, classes)
        tables.append(table)
    return classes, tables


def _oracle_paths(d: int, n: int, tables):
    """Yield per block of finished branches, all (d^2)^n in lexicographic
    outcome order, their outcome codes steps (rows, n) and the n + 1 arrays
    of each branch's class node at levels 0..n, read through the child
    tables by one integer gather per step. Blocks hold at most
    BLOCK_AMPLITUDES integers per (rows, n) array, so memory stays flat."""
    width, rows = d * d, block_rows(n, 1)  # rows of n integers
    for start in range(0, width ** n, rows):
        leaves = np.arange(start, min(start + rows, width ** n))
        steps = leaves[:, None] // width ** np.arange(n - 1, -1, -1) % width
        nodes = [np.zeros(len(leaves), dtype=int)]
        for (child, _, _), step in zip(tables, steps.T):
            nodes.append(child[nodes[-1], step])
        yield steps, nodes


def _oracle_blocks(config: ProtocolConfig):
    """Yield the five field arrays _transcripts reads per block of finished
    branches of one round: _oracle_classes, then each _oracle_paths block's
    measured codes and phase deltas gathered at its nodes."""
    d, n = config.d, config.n
    classes, tables = _oracle_classes(config)
    for steps, nodes in _oracle_paths(d, n, tables):
        cells = list(zip(nodes, steps.T))
        codes = [code[cell] for (_, code, _), cell in zip(tables, cells)]
        phase = sum(delta[cell] for (_, _, delta), cell in zip(tables, cells))
        yield (steps, classes.labels[nodes[-1]], codes[0], np.stack(codes[1:], axis=1),
               phase % d)


def enumerate_oracle_branches(config: ProtocolConfig) -> list[Transcript]:
    """The oracle walk's branches as Transcripts, in outcome order."""
    return [branch for fields in _oracle_blocks(config) for branch in
            _transcripts(repeat(config), "statevector", config.d, config.n, *fields)]


def oracle_view_tally(config: ProtocolConfig, known_parties):
    """Per view class of the coalition known_parties (in 2..n, else
    ValueError), in ascending view order, how many oracle branches give
    each first key dit u1 - k1, as arrays (views, counts).

    A class is what the coalition sees: the announced cat and its outcomes
    in party order. views (C, n + 2 * len(known)) holds its digits,
    (announced, k_i, l_i, ...), and counts (C, d) its branches per first
    dit. After _oracle_classes certifies the walk, each _oracle_paths block
    is tallied on one integer key per branch, those digits in base d: one
    key per final class plus the known parties' outcome codes, and the first
    dit from party 1's measured code. The keys so far stay sorted, a row of
    counts beside each; a block inserts only the keys not among them."""
    d, n = config.d, config.n
    known = [i - 1 for i in _coalition(n, known_parties)]
    places = d ** np.arange(n + 2 * len(known) - 1, -1, -1)
    classes, tables = _oracle_classes(config)
    finals, key_dit = classes.labels @ places[:n], tables[0][1][0] // d
    keys, tally = np.empty(0, dtype=int), np.zeros((0, d), dtype=int)
    for steps, nodes in _oracle_paths(d, n, tables):
        # an outcome code k * d + l at l's place puts k at the place above it
        views = finals[nodes[-1]] + steps[:, known] @ places[n + 1::2]
        fresh, inverse = np.unique(views, return_inverse=True)
        at = np.searchsorted(keys, fresh)
        new = at == np.searchsorted(keys, fresh, side="right")
        if new.any():
            keys = np.insert(keys, at[new], fresh[new])
            tally = np.insert(tally, at[new], 0, axis=0)
            at = np.searchsorted(keys, fresh)
        np.add.at(tally, (at[inverse], key_dit[steps[:, 0]]), 1)
    return keys[:, None] // places % d, tally


def oracle_view_counts(config: ProtocolConfig, known_parties) -> dict[tuple, list[int]]:
    """oracle_view_tally as a dict, in ascending view order: from each view
    class, (announced, ((k_i, l_i), ...) of the known parties in party
    order), to its d counts."""
    views, counts = oracle_view_tally(config, known_parties)
    n = config.n
    return {(tuple(view[:n]), tuple(zip(view[n::2], view[n + 1::2]))): firsts
            for view, firsts in zip(views.tolist(), counts.tolist())}


def round_records(d: int, n: int, seed, engine: str, cat, bells, fields):
    """A block of rounds' verdicts and JSON records, from round_blocks' arrays.

    Returns recover_rounds' ok (R,) and an iterator of ASCII bytes, one per
    chunk, filled as read from one template: each round is ",\n", four
    spaces and json.dumps(record, sort_keys=True) of
    transcript_to_json_dict's record.
    The template writes the keys in sorted order, with d, n, seed, engine
    and the party numbers as literal text; one row of dits in 0..d-1 per
    round fills the rest (any other value raises ValueError), and ok goes in
    as true or false.
    """
    steps, announced, key, finals, _ = fields
    if cat.shape[1:] != (n,):
        raise ValueError(f"{n} parties but cat labels of shape {cat.shape}")
    second, first, ok = recover_rounds(d, cat, bells, steps, announced, key, finals)
    table = np.column_stack([announced, bells.reshape(-1, 2 * n), cat, *np.divmod(key, d),
                             np.stack(np.divmod(steps, d), axis=-1).reshape(-1, 2 * n),
                             first, second])
    if np.any((table < 0) | (table >= d)):
        raise ValueError(f"record values must be dits in 0..{d - 1}")
    table = table.astype(np.uint8)  # held through the fill: as bytes, it lowers peak RSS
    # NUL pads each dit's slot, len(str(d - 1)) bytes, and SOH ok's 5: the
    # rest is json.dumps output, which escapes every control character (and,
    # ASCII only, every non-ASCII one), and ASCII literals, so neither is text
    dit = "\0" * len(str(d - 1))
    ints, pairs = ", ".join([dit] * n), ", ".join([f"[{dit}, {dit}]"] * n)
    outcomes = ", ".join(f'{{"k": {dit}, "l": {dit}, "party": {i}}}' for i in range(1, n + 1))
    template = (f',\n    {{"announced": [{ints}], "bell_labels": [{pairs}], '
                f'"cat_labels": [{ints}], "d": {d}, "engine": {json.dumps(engine)}, '
                f'"key": [{dit}, {dit}], "n": {n}, "ok": \1\1\1\1\1, "outcomes": [{outcomes}], '
                f'"recovered": {{"first_pooled": {dit}, '
                f'"second_per_party": [{ints[len(dit) + 2:]}]}}, '  # n - 1 slots
                f'"seed": {json.dumps(_checked_seed(seed))}}}')
    return ok, _fill_chunks(template.encode(), d, table, ok)


def _fill_chunks(template: bytes, d: int, table, ok):
    """An iterator of ASCII bytes, one per chunk of rows, each the
    concatenation of template, an ASCII text with one run of NUL per column
    of table (R, columns) and one run of five SOH, filled for each row: each
    NUL run with its column's dit, len(str(d - 1)) bytes from one digits
    table of range(d), NUL padded, and the SOH run with ok (R,) as true or
    false. A chunk of rows is one uint8 array, the template tiled with one
    gather of digits scattered into its slot columns; its bytes are yielded
    less the NUL pads. A chunk holds at most 16 bytes per BLOCK_AMPLITUDES,
    the bytes of a block of complex amplitudes."""
    width = len(str(d - 1))
    digits = np.array([list(str(v).ljust(width, "\0").encode()) for v in range(d)], np.uint8)
    literal = np.frombuffer(template, dtype=np.uint8)
    columns, words = np.flatnonzero(literal == 0), np.flatnonzero(literal == 1)
    truth = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, 5)
    rows = max(1, 16 * statevec.BLOCK_AMPLITUDES // len(literal))

    def fill(part):  # one chunk's padded rows; its array is freed on return
        cells = digits[table[part:part + rows]]
        chunk = np.tile(literal, (len(cells), 1))
        chunk[:, columns] = cells.reshape(len(cells), -1)
        chunk[:, words] = truth[ok[part:part + rows].view(np.uint8)]
        return chunk.tobytes()

    return (fill(part).replace(b"\0", b"") for part in range(0, len(table), rows))


def _row(transcript: Transcript):
    """The transcript as round_blocks' one-row arrays: (cat, bells, fields)."""
    config, d = transcript.config, transcript.config.d
    return (np.array([config.cat_labels]), np.array([config.bell_labels]),
            (np.array([transcript.outcomes]) @ (d, 1), np.array([transcript.announced]),
             np.array([transcript.key]) @ (d, 1),
             np.array([transcript.final_bells]) @ (d, 1), np.array([transcript.phase_power])))


def transcript_to_json_dict(transcript: Transcript) -> dict:
    """Flat JSON form of one round, recovery results included: round_records'
    bytes for the transcript's one row, parsed past its leading comma, so it
    is the protocol report's record.

    ok holds when every recovery gives the key and the announcement is
    (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln).
    """
    config = transcript.config
    _, chunks = round_records(config.d, config.n, config.seed, transcript.engine,
                              *_row(transcript))
    return json.loads(next(chunks)[1:])
