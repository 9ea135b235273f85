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

Both engines rewrite labels with bell_measure_block, passing the signs of
the measuring party's role, _ROLE_SIGNS, so every step reads its outcome
in the protocol convention above, at n = 2 too. The symbolic engine,
symbolic_rounds, runs a block of rounds as label arrays, one row per round
under that round's own outcomes, one block call per step; a symbolic
run_round is a block of one. The dense engine runs one step, _dense_step,
on a block of branches: every branch at one depth has the same particle
layout, so their cat labels and cat amplitudes are arrays with one row per
branch, rewritten under all d^2 outcomes and measured by one cat_overlaps
pass, which reads every probability, outcome, end cat and phase from the
amplitudes. The oracle walks all (d^2)^n branches in such blocks; a
statevector round is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .catbell import cat_amplitudes, cat_state, reduce_labels
from .core import validate_dimension, zeta
from .statevec import StateVector, cat_overlaps, kron_rows
from .swapcalc import bell_measure_block

ENGINES = ("symbolic", "statevector")
# A dense-oracle block holds at most this many joint amplitudes, rows times
# d^(n+2), unless a single branch has more.
ORACLE_BLOCK_AMPLITUDES = 1 << 14
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
        cat = tuple(int(u) % self.d for u in self.cat_labels)
        bells = tuple((int(v) % self.d, int(vp) % self.d)
                      for v, vp in self.bell_labels)
        if len(cat) != self.n:
            raise ValueError(f"{self.n} parties but {len(cat)} cat labels")
        if len(bells) != self.n:
            raise ValueError(f"{self.n} parties but {len(bells)} Bell label pairs")
        object.__setattr__(self, "cat_labels", cat)
        object.__setattr__(self, "bell_labels", bells)


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
    """B dense-oracle branches at one depth, sharing one layout.

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


def _dense_start(config: ProtocolConfig) -> tuple[list[StateVector], _Block]:
    """Party 1..n's Bell states, and the block of one branch: the cat."""
    cat, *bells = initial_state(config)
    return bells, _Block(cat.particles, cat.particles, np.array([config.cat_labels]),
                         cat.amps[None], np.zeros(1, dtype=int),
                         np.zeros((1, 0, 2), dtype=int))


def _dense_step(config: ProtocolConfig, bell: StateVector, i: int,
                block: _Block) -> _Block:
    """Every outcome of party i's Bell measurement on every branch of a block.

    Party i's Bell amplitudes are tensored onto each cat row, the factor
    holding the black node first; one cat_overlaps pass gives every
    residual, and bell_measure_block names each outcome's measured Bell
    state and rewritten cat. Each (branch, outcome) probability is checked
    to be 1/d^2 from the amplitudes, and each branch's d^2 outcomes to name
    d^2 distinct Bell states. Returns the B * d^2 children in (branch, k, l)
    order, so outcome (k, l) of a one-branch block is row k * d + l.
    """
    d, n = config.d, config.n
    count = len(block.phase)
    pair = measurement_pair(n, i)
    fragments = [(block.particles, block.labels[:, None, :]),
                 (bell.particles, config.bell_labels[i - 1])]
    factors = [(block.dense, block.amps),
               (bell.particles, np.broadcast_to(bell.amps, (count, d * d)))]
    if i > 1:  # the fragment holding the black node comes first
        fragments.reverse()
        factors.reverse()
    (dense_a, amps_a), (dense_b, amps_b) = factors
    rest, overlaps = cat_overlaps(d, dense_a + dense_b, kron_rows(amps_a, amps_b), pair)
    outcomes = np.stack(np.divmod(np.arange(d * d), d), axis=-1)
    measured, residual, delta, particles = bell_measure_block(
        d, *zip(*fragments), pair, outcomes, _ROLE_SIGNS[i > 1])

    rows, u1, u2 = np.arange(count)[:, None], measured[..., 0], measured[..., 1]
    post = overlaps[rows, u1, u2]
    probabilities = np.sum(np.abs(post) ** 2, axis=2)
    wrong = np.argwhere(np.abs(probabilities - 1.0 / d**2) > 1e-9)
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


def _finish_block(config: ProtocolConfig, block: _Block) -> list[Transcript]:
    """Certify a block of finished branches and read each off as a Transcript.

    One cat_amplitudes call gives every announced cat; each overlap with the
    dense end cat, permuted into register order, must have modulus 1 and
    equal zeta^phase_power, both within 1e-9.
    """
    d, n = config.d, config.n
    count = len(block.phase)
    axes = [1 + block.dense.index(p) for p in block.particles]
    dense = block.amps.reshape((count,) + (d,) * n).transpose([0] + axes)
    amps = np.einsum("bj,bj->b", cat_amplitudes(d, block.labels).conj(),
                     dense.reshape(count, -1))
    if np.any(np.abs(np.abs(amps) - 1.0) > 1e-9):
        raise RuntimeError("dense end state is not the announced cat state")
    roots = np.array([zeta(d, t) for t in range(d)])
    if np.any(np.abs(amps - roots[block.phase]) > 1e-9):
        raise RuntimeError("dense global phase disagrees with the register")
    pairs = list(product(range(d), repeat=2))
    probability = Fraction(1, d ** (2 * n))
    return [Transcript(config, "statevector", tuple(pairs[s] for s, _ in steps),
                       tuple(labels), pairs[steps[0][1]],
                       tuple(pairs[b] for _, b in steps[1:]), phase, probability)
            for labels, phase, steps in zip(block.labels.tolist(),
                                            block.phase.tolist(),
                                            block.codes.tolist())]


def symbolic_rounds(d: int, n: int, cat, bells, outcomes):
    """Run a block of R rounds on label arrays, one bell_measure_block per step.

    cat holds each round's cat labels (R, n), bells its Bell label pairs
    (R, n, 2) and outcomes its (k_i, l_i) per party (R, n, 2), in the
    protocol convention. Returns (announced (R, n), key (R, 2), final Bells
    (R, n - 1, 2), phase power (R,)), the fields of each round's Transcript.
    """
    cat, bells, outcomes = (reduce_labels(d, x) for x in (cat, bells, outcomes))
    if cat.shape[1:] != (n,) or bells.shape[1:] != (n, 2) or outcomes.shape[1:] != (n, 2):
        raise ValueError(f"{n} parties but label shapes {cat.shape} and {bells.shape} "
                         f"and outcome shape {outcomes.shape}")
    particles, labels = tuple(range(1, n + 1)), cat
    measured, phase = [], 0
    for i in range(1, n + 1):
        fragments = [(particles, labels), (bell_particles(n, i), bells[:, i - 1])]
        if i > 1:  # party i's Bell pair holds the black node
            fragments.reverse()
        pair_labels, labels, delta, particles = bell_measure_block(
            d, *zip(*fragments), measurement_pair(n, i), outcomes[:, i - 1],
            _ROLE_SIGNS[i > 1])
        measured.append(pair_labels)
        phase = phase + delta
    return labels, measured[0], np.stack(measured[1:], axis=1), phase % d


def symbolic_transcripts(configs, outcomes) -> list[Transcript]:
    """symbolic_rounds on a block of configs of one d and n, as Transcripts.

    outcomes holds each round's (k_i, l_i) per party, shape (R, n, 2).
    """
    d, n = configs[0].d, configs[0].n
    if any((config.d, config.n) != (d, n) for config in configs):
        raise ValueError("a block of rounds shares one d and one n")
    outcomes = reduce_labels(d, outcomes)
    if outcomes.shape != (len(configs), n, 2):
        raise ValueError(f"{len(configs)} rounds of {n} parties but outcomes of "
                         f"shape {outcomes.shape}")
    fields = symbolic_rounds(d, n, [config.cat_labels for config in configs],
                             [config.bell_labels for config in configs], outcomes)
    probability = Fraction(1, d ** (2 * n))
    return [Transcript(config, "symbolic", tuple(map(tuple, steps)), tuple(announced),
                       tuple(key), tuple(map(tuple, final_bells)), phase, probability)
            for config, steps, announced, key, final_bells, phase
            in zip(configs, outcomes.tolist(), *(field.tolist() for field in fields))]


def run_round(config: ProtocolConfig, engine: str = "symbolic",
              forced_outcomes=None, rng=None) -> Transcript:
    """Execute one round: n Bell measurements, then read off key/announcement.

    Each step takes forced_outcomes[i - 1], a (k_i, l_i) pair, or else its
    own draw rng.integers(0, d, size=2), recorded as drawn (rng falls back
    to config.seed), so a seed gives the same transcript on both engines.
    The symbolic engine is symbolic_rounds on one row; the statevector
    engine runs the oracle's dense step on a one-branch block, which checks
    all d^2 outcomes from the amplitudes, and keeps the drawn outcome's row,
    whose end cat and phase are certified.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    d, n = config.d, config.n
    if forced_outcomes is None:
        rng = np.random.default_rng(config.seed if rng is None else rng)
        forced_outcomes = [rng.integers(0, d, size=2) for _ in range(n)]
    outcomes = [(int(k) % d, int(l) % d) for k, l in forced_outcomes]
    if len(outcomes) != n:
        raise ValueError(f"{n} parties but {len(outcomes)} forced outcomes")

    if engine == "statevector":
        bells, block = _dense_start(config)
        for i, (k, l) in enumerate(outcomes, start=1):
            block = _dense_step(config, bells[i - 1], i, block).rows(
                slice(k * d + l, k * d + l + 1))
        return _finish_block(config, block)[0]
    return symbolic_transcripts([config], [outcomes])[0]


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


def recover_second_dit(view: PartyView) -> int:
    """Party i alone reconstructs v'1 + l1 from its view.

    announced[i] reveals l_i; the party's final Bell second label is
    u_i - l1 - l_i, so l1 follows, and v'1 is public.
    """
    d, i = view.d, view.party
    l_i = (view.announced[i - 1] - view.bell_labels[i - 1][1]) % d
    l_1 = (view.cat_labels[i - 1] - l_i - view.final_bell[1]) % d
    return (view.bell_labels[0][1] + l_1) % d


def recover_first_dit_pooled(views, announced) -> int:
    """All parties 2..n pool k_i shares to reconstruct u1 - k1.

    Each share is k_i = v_i - (final Bell first label); the announcement's
    first slot is v1 + k1 + ... + kn, which then pins k1.
    """
    views = tuple(views)
    if not views:
        raise InsufficientSharesError("no shares supplied")
    d, n = views[0].d, views[0].n
    contributed = sorted(view.party for view in views)
    if contributed != list(range(2, n + 1)):
        missing = sorted(set(range(2, n + 1)) - set(contributed))
        raise InsufficientSharesError(f"missing shares from parties {missing}")
    k_sum = sum(view.bell_labels[view.party - 1][0] - view.final_bell[0]
                for view in views)
    v1 = views[0].bell_labels[0][0]
    u1 = views[0].cat_labels[0]
    k1 = (announced[0] - v1 - k_sum) % d
    return (u1 - k1) % d


def collusion_posterior(d: int, transcript: Transcript, known_parties):
    """Exact posterior of the first key dit for a strict subset of parties.

    The subset knows the announcement and its own k_i; each remaining k_j
    stays uniform, and the posterior is their convolution (uniform whenever
    at least one party is missing). Returns d Fractions summing to 1.
    """
    config = transcript.config
    n = config.n
    if d != config.d:
        raise ValueError(f"dimension {d} differs from the transcript's {config.d}")
    known = set(int(i) for i in known_parties)
    others = set(range(2, n + 1))
    if not known <= others:
        raise ValueError(f"colluding parties must lie in 2..{n}")
    if known == others:
        raise ValueError(
            "every party 2..n is colluding; use recover_first_dit_pooled")

    u1 = config.cat_labels[0]
    v1 = config.bell_labels[0][0]
    known_k = sum(transcript.outcomes[i - 1][0] for i in known)
    base = (u1 - transcript.announced[0] + v1 + known_k) % d

    dist = [Fraction(0)] * d
    dist[base] = Fraction(1)
    for _ in others - known:
        dist = [sum(dist[(w - t) % d] for t in range(d)) / d for w in range(d)]
    return tuple(dist)


def enumerate_oracle_branches(config: ProtocolConfig) -> list[Transcript]:
    """Walk every outcome branch of one round on the dense engine.

    The walk runs level by level on blocks of branches: each level is
    run_round's dense step on a whole block, whose children are split into
    blocks of at most ORACLE_BLOCK_AMPLITUDES joint amplitudes and walked in
    turn, so branches come in lexicographic outcome order and memory stays
    flat. Every branch is checked for 1/d^2 per-step probabilities on d^2
    distinct labels plus the final cat state and phase: the set doubles as
    an exhaustive cross-engine certificate.
    """
    n = config.n
    bells, root = _dense_start(config)
    rows = max(1, ORACLE_BLOCK_AMPLITUDES // config.d ** (n + 2))
    branches: list[Transcript] = []

    def walk(i, block):
        if i > n:
            branches.extend(_finish_block(config, block))
            return
        children = _dense_step(config, bells[i - 1], i, block)
        for start in range(0, len(children.phase), rows):
            walk(i + 1, children.rows(slice(start, start + rows)))

    walk(1, root)
    return branches


def transcript_to_json_dict(transcript: Transcript) -> dict:
    """Flat JSON form of one round, recovery results included.

    ok holds when every recovery gives the key and the announcement is
    (v1 + k1 + ... + kn, v'2 + l2, ..., v'n + ln).
    """
    config = transcript.config
    d, outcomes = config.d, transcript.outcomes
    views = make_party_views(transcript)
    second = [recover_second_dit(view) for view in views]
    first = recover_first_dit_pooled(views, transcript.announced)
    k_total = sum(k for k, _ in outcomes)
    announced = ((config.bell_labels[0][0] + k_total) % d,) + tuple(
        (vp + l) % d for (_, vp), (_, l) in zip(config.bell_labels[1:], outcomes[1:]))
    ok = (first == transcript.key[0] and all(s == transcript.key[1] for s in second)
          and transcript.announced == announced)
    return {
        "d": config.d,
        "n": config.n,
        "seed": config.seed,
        "engine": transcript.engine,
        "cat_labels": list(config.cat_labels),
        "bell_labels": [list(pair) for pair in config.bell_labels],
        "outcomes": [{"party": i + 1, "k": k, "l": l}
                     for i, (k, l) in enumerate(transcript.outcomes)],
        "announced": list(transcript.announced),
        "key": list(transcript.key),
        "recovered": {"second_per_party": second, "first_pooled": first},
        "ok": ok,
    }
