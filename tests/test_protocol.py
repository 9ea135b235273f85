import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from quditswap import protocol
from quditswap.core import MAX_AMPLITUDES
from quditswap.protocol import (InsufficientSharesError, PartyView,
                                ProtocolConfig, collusion_posterior,
                                enumerate_oracle_branches,
                                make_party_views, recover_first_dit_pooled,
                                recover_second_dit, run_round,
                                transcript_to_json_dict)


def zero_config(d, n, seed=None):
    return ProtocolConfig(d, n, (0,) * n, ((0, 0),) * n, seed=seed)


def random_config(d, n, rng, seed=None):
    cat = tuple(int(x) for x in rng.integers(0, d, n))
    bells = tuple((int(v), int(vp)) for v, vp in rng.integers(0, d, (n, 2)))
    return ProtocolConfig(d, n, cat, bells, seed=seed)


def check_transcript(transcript):
    """Announcement identities plus all recovery paths, from raw numbers."""
    config = transcript.config
    d, n = config.d, config.n
    k_total = sum(k for k, _ in transcript.outcomes)
    assert transcript.announced[0] == (config.bell_labels[0][0] + k_total) % d
    for i in range(2, n + 1):
        assert transcript.announced[i - 1] == (
            config.bell_labels[i - 1][1] + transcript.outcomes[i - 1][1]) % d
    assert transcript.key == (
        (config.cat_labels[0] - transcript.outcomes[0][0]) % d,
        (config.bell_labels[0][1] + transcript.outcomes[0][1]) % d)
    views = make_party_views(transcript)
    for view in views:
        assert recover_second_dit(view) == transcript.key[1]
    assert recover_first_dit_pooled(views, transcript.announced) == transcript.key[0]


def test_worked_example_round():
    transcript = run_round(zero_config(2, 3), engine="symbolic",
                           forced_outcomes=[(1, 1), (0, 1), (1, 0)])
    assert transcript.key == (1, 1)
    assert transcript.announced == (0, 1, 0)
    assert transcript.final_bells == ((0, 0), (1, 1))
    assert transcript.phase_power == 1
    assert transcript.probability == Fraction(1, 64)
    check_transcript(transcript)


def test_zero_outcomes_are_identity():
    rng = np.random.default_rng(3)
    for d, n in ((2, 3), (3, 4), (5, 2)):
        config = random_config(d, n, rng)
        transcript = run_round(config, forced_outcomes=[(0, 0)] * n)
        assert transcript.key == (config.cat_labels[0], config.bell_labels[0][1])
        assert transcript.announced == (config.bell_labels[0][0],) + tuple(
            vp for _, vp in config.bell_labels[1:])
        check_transcript(transcript)


def test_engines_agree_on_forced_outcomes():
    rng = np.random.default_rng(8)
    for d, n in ((2, 3), (2, 4), (3, 3), (3, 4), (2, 2), (3, 2)):
        config = random_config(d, n, rng)
        forced = [(int(k), int(l)) for k, l in rng.integers(0, d, (n, 2))]
        symbolic = run_round(config, engine="symbolic", forced_outcomes=forced)
        dense = run_round(config, engine="statevector", forced_outcomes=forced)
        assert symbolic.outcomes == dense.outcomes == tuple(forced)
        assert symbolic.announced == dense.announced
        assert symbolic.key == dense.key
        assert symbolic.final_bells == dense.final_bells
        assert symbolic.phase_power == dense.phase_power
        check_transcript(symbolic)


def test_symbolic_rounds_recover_everywhere():
    rng = np.random.default_rng(15)
    for d, n in ((2, 3), (3, 4), (5, 4), (7, 5)):
        for _ in range(60):
            transcript = run_round(random_config(d, n, rng), rng=rng)
            check_transcript(transcript)


def test_statevector_rounds_recover():
    rng = np.random.default_rng(21)
    for d, n in ((2, 3), (3, 3)):
        for _ in range(20):
            transcript = run_round(random_config(d, n, rng),
                                   engine="statevector", rng=rng)
            check_transcript(transcript)
            assert transcript.probability == Fraction(1, d ** (2 * n))


def test_rounds_are_seed_deterministic():
    config = zero_config(3, 4, seed=99)
    assert run_round(config) == run_round(config)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    assert run_round(config, rng=rng_a) == run_round(config, rng=rng_b)


@pytest.mark.parametrize("config, expected", [
    (ProtocolConfig(2, 2, (0, 0), ((1, 0), (1, 1)), seed=11),
     (((0, 0), (1, 0)), (0, 1), (0, 0), ((0, 0),), 0)),
    (ProtocolConfig(3, 4, (1, 0, 2, 2), ((0, 0), (0, 0), (1, 1), (1, 0)), seed=12),
     (((1, 0), (2, 2), (0, 0), (0, 0)), (0, 2, 1, 0), (0, 0),
      ((1, 1), (1, 2), (1, 2)), 1)),
    (ProtocolConfig(7, 5, (6, 6, 5, 5, 0), ((5, 6), (1, 1), (0, 5), (6, 4), (4, 5)),
                    seed=13),
     (((6, 6), (5, 5), (0, 5), (6, 1), (1, 0)), (2, 6, 3, 5, 5), (0, 5),
      ((3, 2), (0, 1), (0, 5), (3, 1)), 2)),
])
def test_seeded_symbolic_rounds_are_pinned(config, expected):
    # recorded with the scalar register engine: one draw per step, in step
    # order, from the config's seed
    transcript = run_round(config)
    assert (transcript.outcomes, transcript.announced, transcript.key,
            transcript.final_bells, transcript.phase_power) == expected
    assert transcript.probability == Fraction(1, config.d ** (2 * config.n))


def test_label_reuse_chains_rounds():
    # next round starts from the previous round's final labels
    rng = np.random.default_rng(31)
    config = random_config(3, 4, rng)
    for _ in range(5):
        transcript = run_round(config, rng=rng)
        check_transcript(transcript)
        bells = (transcript.key,) + transcript.final_bells
        config = ProtocolConfig(config.d, config.n, transcript.announced, bells)


def test_run_round_validation():
    config = zero_config(2, 3)
    with pytest.raises(ValueError):
        run_round(config, engine="exact")
    with pytest.raises(ValueError):
        run_round(config, forced_outcomes=[(0, 0)])
    with pytest.raises(ValueError):
        ProtocolConfig(2, 1, (0,), ((0, 0),))
    with pytest.raises(ValueError):
        ProtocolConfig(2, 3, (0, 0), ((0, 0),) * 3)


def test_party_view_shape():
    transcript = run_round(zero_config(2, 3), forced_outcomes=[(1, 1), (0, 1), (1, 0)])
    views = make_party_views(transcript)
    assert [view.party for view in views] == [2, 3]
    with pytest.raises(ValueError):
        PartyView(party=1, d=2, n=3, cat_labels=(0, 0, 0),
                  bell_labels=((0, 0),) * 3, outcome=(0, 0),
                  final_bell=(0, 0), announced=(0, 0, 0))


def test_pooled_recovery_needs_every_share():
    transcript = run_round(zero_config(2, 4), forced_outcomes=[(1, 0)] * 4)
    views = make_party_views(transcript)
    assert recover_first_dit_pooled(views, transcript.announced) == transcript.key[0]
    with pytest.raises(InsufficientSharesError):
        recover_first_dit_pooled(views[:-1], transcript.announced)
    with pytest.raises(InsufficientSharesError):
        recover_first_dit_pooled([], transcript.announced)


def test_collusion_posterior_uniform_for_strict_subsets():
    rng = np.random.default_rng(44)
    for d, n in ((2, 3), (3, 4)):
        transcript = run_round(random_config(d, n, rng), rng=rng)
        parties = range(2, n + 1)
        for size in range(0, n - 1):
            for subset in itertools.combinations(parties, size):
                posterior = collusion_posterior(d, transcript, subset)
                assert posterior == (Fraction(1, d),) * d


def test_collusion_posterior_rejects_mismatched_dimension():
    transcript = run_round(zero_config(3, 3), forced_outcomes=[(1, 2)] * 3)
    with pytest.raises(ValueError, match="dimension"):
        collusion_posterior(2, transcript, {2})


def test_statevector_rounds_beyond_the_old_cap():
    # d=7 n=5 held 7^15 amplitudes as one state; factored, the largest is 7^7
    rng = np.random.default_rng(75)
    for _ in range(2):
        transcript = run_round(random_config(7, 5, rng), engine="statevector",
                               rng=rng)
        check_transcript(transcript)
        assert transcript.probability == Fraction(1, 7 ** 10)


def test_collusion_posterior_signals_full_set():
    transcript = run_round(zero_config(3, 3), forced_outcomes=[(1, 2)] * 3)
    with pytest.raises(ValueError, match="every party 2..n is colluding"):
        collusion_posterior(3, transcript, {2, 3})
    with pytest.raises(ValueError):
        collusion_posterior(3, transcript, {1})
    with pytest.raises(ValueError):
        collusion_posterior(3, transcript, {4})


def test_oracle_branches_exhaust_the_round():
    config = zero_config(2, 3)
    branches = enumerate_oracle_branches(config)
    assert len(branches) == 64
    assert {branch.outcomes for branch in branches} == set(
        itertools.product(itertools.product(range(2), repeat=2), repeat=3))
    assert all(branch.probability == Fraction(1, 64) for branch in branches)

    # every branch satisfies the announcement identities
    for branch in branches:
        k_total = sum(k for k, _ in branch.outcomes)
        assert branch.announced[0] == k_total % 2
        for i in (2, 3):
            assert branch.announced[i - 1] == branch.outcomes[i - 1][1] % 2
        assert branch.key == ((-branch.outcomes[0][0]) % 2, branch.outcomes[0][1])


def test_oracle_branches_confirm_secrecy():
    # condition on what a single colluder sees; the first key dit stays balanced
    branches = enumerate_oracle_branches(zero_config(2, 3))
    for known in ({2}, {3}, set()):
        classes = {}
        for branch in branches:
            view = (branch.announced,
                    tuple(branch.outcomes[i - 1] for i in sorted(known)))
            classes.setdefault(view, []).append(branch.key[0])
        for firsts in classes.values():
            assert firsts.count(0) == firsts.count(1) == len(firsts) // 2


@pytest.mark.parametrize("keep", ["k", "l"])
def test_dense_engine_rejects_a_rewrite_that_drops_k_or_l(monkeypatch, keep):
    # Each party role in turn drops k or l, at n = 2 and at n = 3, caught at
    # the first party in that role. Every predicted Bell state still has
    # probability 1/d^2, so only the check that the d^2 outcomes name d^2
    # distinct states sees the fault. A sign flip only relabels the
    # outcomes and still passes the walk.
    d, roles = 3, protocol._ROLE_SIGNS
    for n, role in itertools.product((2, 3), (0, 1)):
        party, (sk, sl) = role + 1, roles[role]
        config = zero_config(d, n)

        def inject(signs):
            monkeypatch.setattr(protocol, "_ROLE_SIGNS",
                                roles[:role] + (signs,) + roles[role + 1:])

        inject((0, sl) if keep == "l" else (sk, 0))
        with pytest.raises(RuntimeError, match=f"party {party}'s outcomes name"):
            enumerate_oracle_branches(config)
        with pytest.raises(RuntimeError, match=f"party {party}'s outcomes name"):
            run_round(config, engine="statevector", forced_outcomes=[(1, 2)] * n)
        inject((-sk, sl) if keep == "k" else (sk, -sl))
        assert len(enumerate_oracle_branches(config)) == d ** (2 * n)


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 3), (7, 5)])
def test_seeded_round_records_its_raw_draws(d, n):
    # With no forced outcomes, step i takes the seed's i-th
    # integers(0, d, size=2) draw and records it as drawn, on either engine;
    # the protocol command records its drawn outcomes the same way.
    config = random_config(d, n, np.random.default_rng(d * n))
    engines = [e for e in protocol.ENGINES
               if e == "symbolic" or d ** (n + 2) <= MAX_AMPLITUDES]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        draws = tuple(tuple(int(x) for x in rng.integers(0, d, size=2))
                      for _ in range(n))
        for engine in engines:
            assert run_round(config, engine, rng=seed).outcomes == draws


def test_dense_engine_checks_end_state_and_phase(monkeypatch):
    # The dense engine reads labels and phase from the array rewrite. Each
    # wrap shifts them by one unit per step, so n steps shift them by n,
    # which is nonzero mod d because d does not divide n.
    def shift_phase(measured, residual, delta, particles):
        return measured, residual, delta + 1, particles

    def shift_residual(measured, residual, delta, particles):
        residual = residual.copy()
        residual[..., 0] += 1
        return measured, residual, delta, particles

    rewrite = protocol.bell_measure_block
    config = random_config(3, 4, np.random.default_rng(8))
    forced = [(1, 2), (0, 1), (2, 2), (1, 0)]
    for shift, message in ((shift_phase, "global phase disagrees"),
                           (shift_residual, "not the announced cat state")):
        monkeypatch.setattr(protocol, "bell_measure_block",
                            lambda *args, shift=shift: shift(*rewrite(*args)))
        with pytest.raises(RuntimeError, match=message):
            run_round(config, engine="statevector", forced_outcomes=forced)
        with pytest.raises(RuntimeError, match=message):
            enumerate_oracle_branches(zero_config(2, 3))
        assert run_round(config, engine="symbolic",
                         forced_outcomes=forced).outcomes == tuple(forced)

    # an end phase that is no power of zeta disagrees with the register too
    monkeypatch.setattr(protocol, "bell_measure_block", rewrite)
    amplitudes = protocol.cat_amplitudes
    monkeypatch.setattr(protocol, "cat_amplitudes",
                        lambda d, labels: amplitudes(d, labels) * np.exp(0.1j))
    with pytest.raises(RuntimeError, match="global phase disagrees"):
        run_round(config, engine="statevector", forced_outcomes=forced)
    with pytest.raises(RuntimeError, match="global phase disagrees"):
        enumerate_oracle_branches(zero_config(2, 3))
    assert run_round(config, engine="symbolic",
                     forced_outcomes=forced).outcomes == tuple(forced)


def test_block_checks_read_every_row(monkeypatch):
    # The budget makes blocks of 3 branches at d=2, n=3. A fault in only the
    # last row of each multi-row block is caught, whether it sits in a step's
    # overlaps or rewrite or in the end check's reference cats.
    def last_row_scaled(d, particles, amps, pair):
        rest, overlaps = overlap_pass(d, particles, amps, pair)
        if len(overlaps) > 1:
            overlaps[-1] *= 1.1
        return rest, overlaps

    def last_row_duplicate(*args):
        measured, residual, delta, particles = rewrite(*args)
        if len(measured) > 1:
            measured = measured.copy()
            measured[-1, -1] = measured[-1, 0]
        return measured, residual, delta, particles

    def last_row_scaled_cat(d, labels):
        amps = amplitudes(d, labels)
        if len(amps) > 1:
            amps[-1] *= factor
        return amps

    overlap_pass = protocol.cat_overlaps
    rewrite, amplitudes = protocol.bell_measure_block, protocol.cat_amplitudes
    config = zero_config(2, 3)
    monkeypatch.setattr(protocol, "ORACLE_BLOCK_AMPLITUDES", 3 * 2 ** 5)
    monkeypatch.setattr(protocol, "cat_overlaps", last_row_scaled)
    with pytest.raises(RuntimeError, match=r"party 2 outcome \(0,0\) has probability"):
        enumerate_oracle_branches(config)
    monkeypatch.setattr(protocol, "cat_overlaps", overlap_pass)
    monkeypatch.setattr(protocol, "bell_measure_block", last_row_duplicate)
    with pytest.raises(RuntimeError, match="party 2's outcomes name 3 Bell states"):
        enumerate_oracle_branches(config)
    monkeypatch.setattr(protocol, "bell_measure_block", rewrite)
    monkeypatch.setattr(protocol, "cat_amplitudes", last_row_scaled_cat)
    for factor, message in ((np.exp(0.1j), "global phase disagrees"),
                            (1.1, "not the announced cat state")):
        with pytest.raises(RuntimeError, match=message):
            enumerate_oracle_branches(config)
    monkeypatch.setattr(protocol, "cat_amplitudes", amplitudes)
    assert len(enumerate_oracle_branches(config)) == 64


def test_oracle_is_the_symbolic_engine_under_forced_outcomes(monkeypatch):
    # The oracle's dense walk against symbolic_rounds one forced outcome
    # sequence at a time: one rewrite, but only the oracle reads outcomes
    # and phases from amplitudes. Field for field, in order, and the same
    # with one branch per block and with the whole tree in one.
    rng, default = np.random.default_rng(12), protocol.ORACLE_BLOCK_AMPLITUDES
    for d, n in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
        config = random_config(d, n, rng)
        pairs = itertools.product(range(d), repeat=2)
        expected = [dataclasses.replace(run_round(config, "symbolic", forced_outcomes=o),
                                        engine="statevector")
                    for o in itertools.product(pairs, repeat=n)]
        for budget in (default, 1, d ** (4 * n + 2)):
            monkeypatch.setattr(protocol, "ORACLE_BLOCK_AMPLITUDES", budget)
            assert enumerate_oracle_branches(config) == expected


def test_transcript_json_dict_schema():
    transcript = run_round(zero_config(2, 3, seed=7),
                           forced_outcomes=[(1, 1), (0, 1), (1, 0)])
    record = transcript_to_json_dict(transcript)
    assert record == {
        "d": 2, "n": 3, "seed": 7, "engine": "symbolic",
        "cat_labels": [0, 0, 0],
        "bell_labels": [[0, 0], [0, 0], [0, 0]],
        "outcomes": [{"party": 1, "k": 1, "l": 1},
                     {"party": 2, "k": 0, "l": 1},
                     {"party": 3, "k": 1, "l": 0}],
        "announced": [0, 1, 0],
        "key": [1, 1],
        "recovered": {"second_per_party": [1, 1], "first_pooled": 1},
        "ok": True,
    }
