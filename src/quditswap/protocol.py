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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .catbell import cat_state
from .core import phase_exponent, validate_dimension
from .statevec import StateVector, born_sample, cat_overlaps, inner_product, tensor
from .swapcalc import CatFragment, Register, bell_measure

ENGINES = ("symbolic", "statevector")


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


def initial_register(config: ProtocolConfig) -> Register:
    n = config.n
    fragments = [CatFragment(config.d, tuple(range(1, n + 1)), config.cat_labels)]
    for i in range(1, n + 1):
        fragments.append(CatFragment(config.d, bell_particles(n, i),
                                     config.bell_labels[i - 1]))
    return Register(config.d, tuple(fragments))


def initial_state(config: ProtocolConfig) -> tuple[StateVector, ...]:
    """Dense oracle of a round: one state factor per initial fragment."""
    return tuple(f.to_state() for f in initial_register(config).fragments)


def measurement_pair(n: int, i: int) -> tuple[int, int]:
    """Party i's measured (black node, white node) pair."""
    if i == 1:
        return 1, bell_particles(n, 1)[1]
    return bell_particles(n, i)[0], i


def _convention_map(n: int, i: int, k: int, l: int, d: int) -> tuple[int, int]:
    """Translate party i's (k_i, l_i) to/from the raw swap-rule outcome.

    At n = 2 every fragment is a Bell pair, so each step runs under the
    bell-bell rule whose outcome labels the measured pair as
    (black + k, white + l); the protocol convention labels Alice's pair
    (u1 - k, v' + l) and party 2's (v - k, u - l). The map is its own
    inverse. For n >= 3 the black/white rules already use the protocol
    convention.
    """
    if n == 2:
        if i == 1:
            return (-k) % d, l % d
        return (-k) % d, (-l) % d
    return k % d, l % d


def _dense_step(register: Register, factors, n: int, i: int):
    """Every outcome of party i's Bell measurement on the factored oracle.

    Only the two factors holding the measured pair are tensored; one
    cat_overlaps pass gives all d^2 residuals, whose Bell labels come from
    the symbolic register. Each probability is checked to be 1/d^2 from the
    amplitudes. Returns d^2 candidates ((k, l), register, probability,
    factors) in (k, l) order.
    """
    d = register.d
    black, white = pair = measurement_pair(n, i)
    a = next(f for f in factors if black in f.particles)
    b = next(f for f in factors if white in f.particles)
    untouched = tuple(f for f in factors if f is not a and f is not b)
    rest, overlaps = cat_overlaps(tensor(a, b), pair)
    probabilities = np.sum(np.abs(overlaps) ** 2, axis=2)

    candidates = []
    for k, l in product(range(d), repeat=2):
        _, reg_kl = bell_measure(register, pair,
                                 outcome=_convention_map(n, i, k, l, d))
        u1, u2 = reg_kl.fragment_of(black).labels
        probability = float(probabilities[u1, u2])
        if abs(probability - 1.0 / d**2) > 1e-9:
            raise RuntimeError(f"party {i} outcome ({k},{l}) has probability "
                               f"{probability}, not 1/d^2")
        post = StateVector(d, rest, overlaps[u1, u2] / np.sqrt(probability))
        candidates.append(((k, l), reg_kl, probability, untouched + (post,)))
    return candidates


def _finish(register: Register, factors, n: int) -> dict:
    """Read a finished round off the register, as Transcript fields.

    With dense factors (None on the symbolic engine), first match the dense
    end state to the announced cat state, phase included.
    """
    d = register.d
    final_cat = register.fragment_of(bell_particles(n, 1)[0])
    if factors is not None:
        if len(factors) != 1:
            raise RuntimeError(f"dense end state holds {len(factors)} factors, "
                               f"not one cat state")
        amp = inner_product(cat_state(d, final_cat.particles, final_cat.labels),
                            factors[0])
        if abs(abs(amp) - 1.0) > 1e-9:
            raise RuntimeError("dense end state is not the announced cat state")
        if phase_exponent(d, amp) != register.phase_power:
            raise RuntimeError("dense global phase disagrees with the register")
    return {"announced": final_cat.labels, "key": register.fragment_of(1).labels,
            "final_bells": tuple(register.fragment_of(bell_particles(n, i)[0]).labels
                                 for i in range(2, n + 1)),
            "phase_power": register.phase_power,
            "probability": register.branch_probability()}


def run_round(config: ProtocolConfig, engine: str = "symbolic",
              forced_outcomes=None, rng=None) -> Transcript:
    """Execute one round: n Bell measurements, then read off key/announcement.

    forced_outcomes, when given, is a length-n list of (k_i, l_i) pairs;
    otherwise outcomes are drawn from rng (falling back to config.seed).
    The statevector engine Born-samples each outcome from the factored dense
    oracle and certifies the symbolic register against it, phase included.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    d, n = config.d, config.n
    if forced_outcomes is not None:
        forced_outcomes = [(int(k) % d, int(l) % d) for k, l in forced_outcomes]
        if len(forced_outcomes) != n:
            raise ValueError(f"{n} parties but {len(forced_outcomes)} forced outcomes")
    rng = np.random.default_rng(config.seed if rng is None else rng)

    register = initial_register(config)
    factors = initial_state(config) if engine == "statevector" else None
    outcomes: list[tuple[int, int]] = []

    for i in range(1, n + 1):
        if engine == "symbolic":
            forced = (None if forced_outcomes is None
                      else _convention_map(n, i, *forced_outcomes[i - 1], d))
            raw, register = bell_measure(register, measurement_pair(n, i),
                                         outcome=forced, rng=rng)
            outcomes.append(_convention_map(n, i, raw.k, raw.l, d))
            continue

        candidates = _dense_step(register, factors, n, i)
        if forced_outcomes is not None:
            k, l = forced_outcomes[i - 1]
            index = k * d + l
        else:
            index = born_sample([c[2] for c in candidates], rng)
        kl, register, _, factors = candidates[index]
        outcomes.append(kl)

    return Transcript(config=config, engine=engine, outcomes=tuple(outcomes),
                      **_finish(register, factors, n))


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

    Each step runs the same dense step as run_round, so every branch is
    checked for 1/d^2 per-step probabilities plus the final cat state and
    phase: the returned set doubles as an exhaustive cross-engine certificate.
    """
    n = config.n
    branches: list[Transcript] = []

    def walk(i, register, factors, outcomes):
        if i > n:
            branches.append(Transcript(config, "statevector", tuple(outcomes),
                                       **_finish(register, factors, n)))
            return
        for kl, reg_kl, _, factors_kl in _dense_step(register, factors, n, i):
            walk(i + 1, reg_kl, factors_kl, outcomes + [kl])

    walk(1, initial_register(config), initial_state(config), [])
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
