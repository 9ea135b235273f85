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
transcript_to_json_dict are its one-row calls, and round_records turns
its rows into the JSON records the protocol command streams.
collusion_counts reads the same arrays for a coalition's view of the
first key dit; collusion_posterior is its one-row call. The symbolic
engine rewrites a block as label arrays, one row per round under its own
outcomes, one block call per step. The dense engine runs one step,
_dense_step, on a block of branches that share one particle layout:
their cat labels and amplitudes are arrays with one row per branch,
rewritten under all d^2 outcomes and measured by one cat_overlaps pass,
which reads every probability, outcome, end cat and phase from the
amplitudes. A block of statevector rounds starts with one branch per
round and keeps each round's own outcome; the oracle streams all (d^2)^n
branches of one round in such blocks to enumerate_oracle_branches and
oracle_view_counts. Both size blocks by block_rows, which refuses a
d^(n+2) step over the amplitude cap before any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from .catbell import cat_amplitudes, cat_state, reduce_labels
from .core import validate_dimension, zeta
from .statevec import StateVector, block_rows, cat_overlaps, kron_rows
from .swapcalc import bell_measure_block

ENGINES = ("symbolic", "statevector")
# Signs that read a party's (k_i, l_i) into the black-node rewrite, by role:
# party 1 measures (u1 - k, v' + l), parties 2..n measure (v - k, u_i - l).
_ROLE_SIGNS = ((1, 1), (1, -1))


class InsufficientSharesError(ValueError):
    """Pooled recovery was attempted without every party's share."""


def bell_particles(n: int, i: int) -> tuple[int, int]:
    return n + 2 * i - 1, n + 2 * i


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    n: int
    cat_labels: tuple[int, ...]
    bell_labels: tuple[tuple[int, int], ...]
    seed: int | None = None

    def __post_init__(self):
        validate_dimension(self.d)
        if self.n < 2:
            raise ValueError("the protocol needs at least 2 parties")
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
        if not 2 <= self.party <= self.n:
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
    """B dense branches at one depth, sharing one layout.

    particles orders the register's cat, whose labels are (B, len); dense
    orders the cat amplitudes (B, d^len); phase (B,) is each branch's power
    of zeta; codes (B, i, 2) holds, per step so far, the outcome k*d + l and
    the measured Bell labels u1*d + u2.
    """

    particles: tuple[int, ...]
    dense: tuple[int, ...]
    labels: np.ndarray
    amps: np.ndarray
    phase: np.ndarray
    codes: np.ndarray

    def rows(self, index) -> _Block:
        return self._replace(labels=self.labels[index], amps=self.amps[index],
                             phase=self.phase[index], codes=self.codes[index])


def _party_rewrite(d: int, n: int, i: int, particles, labels, bell, outcomes):
    """Party i's bell_measure_block on the cat (particles, labels) and its
    Bell pair: black node's fragment first, party i's pair and role signs."""
    fragments = [(particles, labels), (bell_particles(n, i), bell)]
    if i > 1:  # party i's Bell pair holds the black node
        fragments.reverse()
    return bell_measure_block(d, *zip(*fragments), measurement_pair(n, i), outcomes,
                              _ROLE_SIGNS[i > 1])


def _dense_start(d: int, n: int, cat) -> _Block:
    """The block of one branch per row of cat labels (B, n): the cat states."""
    particles = tuple(range(1, n + 1))
    return _Block(particles, particles, cat, cat_amplitudes(d, cat),
                  np.zeros(len(cat), dtype=int), np.zeros((len(cat), 0, 2), dtype=int))


def _dense_step(d: int, n: int, bell, i: int, block: _Block) -> _Block:
    """Every outcome of party i's Bell measurement on every branch of a block.

    bell holds party i's Bell labels: one pair, or one per row (B, 2). Their
    amplitudes are tensored after each cat row; one cat_overlaps pass gives
    every residual, and _party_rewrite names each outcome's measured Bell
    state and rewritten cat. Each (branch, outcome) probability is checked
    to be 1/d^2 from the amplitudes, and each branch's d^2 outcomes to name
    d^2 distinct Bell states. Returns the B * d^2 children in (branch, k, l)
    order: outcome (k, l) of branch b is row b * d^2 + k * d + l.
    """
    count, bell = len(block.phase), np.reshape(bell, (-1, 1, 2))
    rest, overlaps = cat_overlaps(d, block.dense + bell_particles(n, i),
                                  kron_rows(block.amps, cat_amplitudes(d, bell[:, 0])),
                                  measurement_pair(n, i))
    outcomes = np.stack(np.divmod(np.arange(d * d), d), axis=-1)
    measured, residual, delta, particles = _party_rewrite(
        d, n, i, block.particles, block.labels[:, None, :], bell, outcomes)

    rows, u1, u2 = np.arange(count)[:, None], measured[..., 0], measured[..., 1]
    post = overlaps[rows, u1, u2]
    probabilities = np.sum(np.abs(post) ** 2, axis=2)
    wrong = np.argwhere(~(np.abs(probabilities - 1.0 / d**2) <= 1e-9))  # NaN fails
    if len(wrong):
        row, code = wrong[0]
        raise RuntimeError(f"party {i} outcome ({code // d},{code % d}) has probability "
                           f"{float(probabilities[row, code])}, not 1/d^2")
    named = u1 * d + u2
    seen = np.zeros((count, d * d), dtype=bool)
    seen[rows, named] = True
    cells = np.count_nonzero(seen, axis=1)
    if cells.min() < d**2:
        raise RuntimeError(f"party {i}'s outcomes name {cells.min()} Bell states, not d^2")

    post /= np.sqrt(probabilities)[..., None]
    size = count * d * d
    step = np.stack(np.broadcast_arrays(np.arange(d * d), named), axis=-1)
    return _Block(particles, rest, residual.reshape(size, -1), post.reshape(size, -1),
                  ((block.phase[:, None] + delta) % d).reshape(size),
                  np.concatenate([np.repeat(block.codes, d * d, axis=0),
                                  step.reshape(size, 1, 2)], axis=1))


def _finish_block(d: int, n: int, block: _Block):
    """Certify a block of finished branches; return the fields _transcripts reads.

    One cat_amplitudes call gives every announced cat; each overlap with the
    dense end cat, permuted into register order, must have modulus 1 and
    equal zeta^phase_power, both within 1e-9.
    """
    count = len(block.phase)
    axes = [1 + block.dense.index(p) for p in block.particles]
    dense = block.amps.reshape((count,) + (d,) * n).transpose([0] + axes)
    amps = np.einsum("bj,bj->b", cat_amplitudes(d, block.labels).conj(),
                     dense.reshape(count, -1))
    if not np.all(np.abs(np.abs(amps) - 1.0) <= 1e-9):  # NaN fails
        raise RuntimeError("dense end state is not the announced cat state")
    roots = np.array([zeta(d, t) for t in range(d)])
    if not np.all(np.abs(amps - roots[block.phase]) <= 1e-9):
        raise RuntimeError("dense global phase disagrees with the register")
    codes = block.codes
    return codes[..., 0], block.labels, codes[:, 0, 1], codes[:, 1:, 1], block.phase


def _dense_rounds(d: int, n: int, cat, bells, outcomes):
    """A block of rounds on the dense step: one branch per round, keeping
    each round's own outcome (k, l) at every step; _finish_block's fields."""
    block, first = _dense_start(d, n, cat), np.arange(len(cat)) * d * d
    for i in range(1, n + 1):
        block = _dense_step(d, n, bells[:, i - 1], i, block).rows(
            first + outcomes[:, i - 1] @ (d, 1))
    return _finish_block(d, n, block)


def _symbolic_rounds(d: int, n: int, cat, bells, outcomes):
    """A block of rounds on label arrays, one bell_measure_block per step;
    the fields _finish_block returns."""
    particles, labels = tuple(range(1, n + 1)), cat
    codes, phase = [], 0
    for i in range(1, n + 1):
        measured, labels, delta, particles = _party_rewrite(
            d, n, i, particles, labels, bells[:, i - 1], outcomes[:, i - 1])
        codes.append(measured @ (d, 1))
        phase = phase + delta
    return outcomes @ (d, 1), labels, codes[0], np.stack(codes[1:], axis=1), phase % d


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
    announced, key, finals, phase)). The statevector engine runs sub-blocks
    of block_rows(d, n + 2) rounds (so ValueError over the cap), and checks
    every step of every round, all d^2 outcomes, and each end cat and phase
    from amplitudes; the symbolic engine runs the block as one.
    """
    validate_dimension(d)
    if n < 2:
        raise ValueError("the protocol needs at least 2 parties")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    cat, bells, outcomes = (reduce_labels(d, x) for x in (cat, bells, outcomes))
    count = len(outcomes)
    if (cat.shape, bells.shape, outcomes.shape) != ((count, n), (count, n, 2),
                                                    (count, n, 2)):
        raise ValueError(f"{n} parties but label shapes {cat.shape} and {bells.shape} "
                         f"and outcome shape {outcomes.shape}")
    rows, run = ((block_rows(d, n + 2), _dense_rounds) if engine == "statevector"
                 else (max(1, count), _symbolic_rounds))
    for start in range(0, count, rows):
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
        PartyView(party=i, d=config.d, n=config.n,
                  cat_labels=config.cat_labels,
                  bell_labels=config.bell_labels,
                  outcome=transcript.outcomes[i - 1],
                  final_bell=transcript.final_bells[i - 2],
                  announced=transcript.announced)
        for i in range(2, config.n + 1))


def recover_rounds(d: int, cat, bells, steps, announced, key, finals):
    """Every recovery of a block of R rounds, on round_blocks' arrays.

    cat (R, n) and bells (R, n, 2) hold the rounds' labels; steps (R, n),
    announced (R, n), key (R,) and finals (R, n - 1) are round_blocks'
    first four fields, with label pairs coded a * d + b. Party i >= 2 reads
    l_i = announced[i] - v'_i; its final Bell second label is
    u_i - l1 - l_i, so l1 follows, and v'1 is public. Its share is
    k_i = v_i - (final Bell first label); the announcement's first slot
    v1 + k1 + ... + kn then pins k1 once all of 2..n pool their shares.

    Returns per row the second key dit v'1 + l1 each party 2..n recovers
    alone (R, n - 1), the first key dit u1 - k1 they recover pooled (R,),
    and ok (R,): every recovery gives the key and the announcement is
    (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln).
    """
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
    """known_parties, sorted without repeats; ValueError outside 2..n."""
    known = sorted({int(i) for i in known_parties})
    if not set(known) <= set(range(2, n + 1)):
        raise ValueError(f"colluding parties must lie in 2..{n}")
    return known


def collusion_counts(d: int, cat, bells, steps, announced, known_parties) -> np.ndarray:
    """Per round of a block, on round_blocks' cat, bells, steps and announced:
    how many choices of the missing parties' k_j give each first key dit
    u1 - k1 = base + (their sum), where the coalition, a strict subset of
    2..n, knows base = u1 - a1 + v1 + (its own k_i). Counts (R, d), one
    convolution with the uniform k_j per missing party; a row sums to d^missing."""
    n = cat.shape[1]
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


def _oracle_blocks(config: ProtocolConfig):
    """Yield _finish_block's fields per block of finished branches of one
    round, walked depth-first: each level's children are split into blocks
    of block_rows(d, n + 2) branches (so ValueError over the cap), so they
    come in lexicographic outcome order and memory stays flat. Each step's
    1/d^2 probabilities on d^2 distinct labels, and each end cat and phase,
    are checked: the walk is an exhaustive cross-engine certificate."""
    d, n = config.d, config.n
    rows = block_rows(d, n + 2)

    def walk(i, block):
        if i > n:
            yield _finish_block(d, n, block)
            return
        children = _dense_step(d, n, config.bell_labels[i - 1], i, block)
        for start in range(0, len(children.phase), rows):
            yield from walk(i + 1, children.rows(slice(start, start + rows)))

    yield from walk(1, _dense_start(d, n, np.array([config.cat_labels])))


def enumerate_oracle_branches(config: ProtocolConfig) -> list[Transcript]:
    """The oracle walk's branches as Transcripts, in outcome order."""
    return [branch for fields in _oracle_blocks(config) for branch in
            _transcripts(repeat(config), "statevector", config.d, config.n, *fields)]


def oracle_view_counts(config: ProtocolConfig, known_parties) -> dict[tuple, list[int]]:
    """Per view class of the coalition known_parties (in 2..n, else
    ValueError), in walk order, how many oracle branches give each first key
    dit u1 - k1: d counts. A class is what the coalition sees, (announced,
    its outcomes ((k_i, l_i), ...) in party order)."""
    d, n = config.d, config.n
    known = _coalition(n, known_parties)
    counts: dict[tuple, list[int]] = {}
    for steps, announced, key, _, _ in _oracle_blocks(config):
        views = np.concatenate([announced, steps[:, [i - 1 for i in known]]], axis=1)
        for view, first in zip(views.tolist(), (key // d).tolist()):
            counts.setdefault(tuple(view), [0] * d)[first] += 1
    pairs = list(product(range(d), repeat=2))
    return {(view[:n], tuple(pairs[c] for c in view[n:])): firsts
            for view, firsts in counts.items()}


def round_records(d: int, n: int, seed, engine: str, cat, bells, fields):
    """A block of rounds' verdicts and JSON records, from round_blocks' arrays.

    Returns recover_rounds' ok (R,) and an iterator of the records in
    transcript_to_json_dict's form, built one at a time as it is read.
    """
    steps, announced, key, finals, _ = fields
    second, first, ok = recover_rounds(d, cat, bells, steps, announced, key, finals)
    rows = zip(*(field.tolist() for field in (cat, bells, steps, announced, key,
                                               second, first, ok)))
    records = ({"d": d, "n": n, "seed": seed, "engine": engine,
                "cat_labels": labels, "bell_labels": pairs,
                "outcomes": [{"party": i, "k": c // d, "l": c % d}
                             for i, c in enumerate(codes, 1)],
                "announced": public, "key": [code // d, code % d],
                "recovered": {"second_per_party": alone, "first_pooled": pooled},
                "ok": good}
               for labels, pairs, codes, public, code, alone, pooled, good in rows)
    return ok, records


def _row(transcript: Transcript):
    """The transcript as round_blocks' one-row arrays: (cat, bells, fields)."""
    config, d = transcript.config, transcript.config.d
    return (np.array([config.cat_labels]), np.array([config.bell_labels]),
            (np.array([transcript.outcomes]) @ (d, 1), np.array([transcript.announced]),
             np.array([transcript.key]) @ (d, 1),
             np.array([transcript.final_bells]) @ (d, 1), np.array([transcript.phase_power])))


def transcript_to_json_dict(transcript: Transcript) -> dict:
    """Flat JSON form of one round, recovery results included: round_records
    on the transcript's one row.

    ok holds when every recovery gives the key and the announcement is
    (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln).
    """
    config = transcript.config
    _, records = round_records(config.d, config.n, config.seed, transcript.engine,
                               *_row(transcript))
    return next(records)
