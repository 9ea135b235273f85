import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from quditswap import protocol, statevec
from quditswap.core import MAX_AMPLITUDES
from quditswap.protocol import (InsufficientSharesError, PartyView,
                                ProtocolConfig, collusion_posterior,
                                enumerate_oracle_branches,
                                make_party_views, oracle_view_counts,
                                recover_first_dit_pooled,
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
    # a share given twice names its party, with or without the others
    for pooled, party in (([views[0], views[0], views[1]], 2),
                          (list(views) + [views[1]], 3)):
        with pytest.raises(ValueError, match=rf"shares from parties \[{party}\]"):
            recover_first_dit_pooled(pooled, transcript.announced)


def test_pooled_recovery_rejects_views_of_different_rounds():
    # d=3 n=3, zero labels: views whose announcements or cat labels differ,
    # or an announcement argument that differs from theirs, raise
    config = zero_config(3, 3)
    first = run_round(config, forced_outcomes=[(1, 1), (2, 0), (1, 2)])
    other = run_round(config, forced_outcomes=[(1, 1), (2, 1), (1, 2)])
    moved = run_round(ProtocolConfig(3, 3, (1, 0, 0), ((0, 0),) * 3),
                      forced_outcomes=[(1, 1), (2, 0), (1, 2)])
    assert first.announced != other.announced
    views = make_party_views(first)
    for pooled, announced in (((views[0], make_party_views(other)[1]), first.announced),
                              ((views[0], make_party_views(moved)[1]), first.announced),
                              (views, other.announced)):
        with pytest.raises(ValueError, match="disagree"):
            recover_first_dit_pooled(pooled, announced)
    # views of two rounds that agree on every public field are the views of
    # one round, here the one with k1 = 2, and give that round's dit
    second = run_round(config, forced_outcomes=[(1, 1), (0, 0), (0, 2)])
    mixed = (views[0], make_party_views(second)[1])
    joint = run_round(config, forced_outcomes=[(2, 1), (2, 0), (0, 2)])
    assert mixed == make_party_views(joint)
    assert recover_first_dit_pooled(mixed, first.announced) == joint.key[0] == 1


def test_array_recovery_is_the_per_party_arithmetic():
    # recover_rounds against the paper's recovery, party by party in Python
    # integers, on arbitrary field arrays (mostly not rounds of the
    # protocol, so ok is mostly false) and on rounds run by the engine
    rng = np.random.default_rng(3)
    for d, n in ((2, 2), (3, 4), (7, 5)):
        count = 50
        cat, bells = rng.integers(0, d, (count, n)), rng.integers(0, d, (count, n, 2))
        outcomes = rng.integers(0, d, (count, n, 2))
        (_, _, ran), = protocol.round_blocks(d, n, cat, bells, outcomes)
        noise = (rng.integers(0, d * d, (count, n)), rng.integers(0, d, (count, n)),
                 rng.integers(0, d * d, count), rng.integers(0, d * d, (count, n - 1)))
        for steps, announced, key, finals in (ran[:4], noise):
            second, first, ok = protocol.recover_rounds(d, cat, bells, steps, announced,
                                                        key, finals)
            for r in range(count):
                c, b, a = cat[r].tolist(), bells[r].tolist(), announced[r].tolist()
                f = [divmod(x, d) for x in finals[r].tolist()]
                o = [divmod(x, d) for x in steps[r].tolist()]
                alone = [(b[0][1] + c[i] - (a[i] - b[i][1]) - f[i - 1][1]) % d
                         for i in range(1, n)]
                k_1 = a[0] - b[0][0] - sum(b[i][0] - f[i - 1][0] for i in range(1, n))
                pooled = (c[0] - k_1) % d
                expected = [(b[0][0] + sum(k for k, _ in o)) % d] + [
                    (b[i][1] + o[i][1]) % d for i in range(1, n)]
                assert second[r].tolist() == alone and first[r] == pooled
                assert ok[r] == (pooled == key[r] // d and alone == [key[r] % d] * (n - 1)
                                 and a == expected)
            assert ok.all() if steps is ran[0] else not ok.all()


def test_collusion_posterior_uniform_for_strict_subsets():
    # On one Transcript, and on a block of round_blocks' arrays, where each
    # row's collusion_counts is collusion_posterior on the row's replay
    rng = np.random.default_rng(44)
    for d, n in ((2, 3), (3, 4)):
        transcript = run_round(random_config(d, n, rng), rng=rng)
        cat, bells, outcomes = (rng.integers(0, d, shape)
                                for shape in ((6, n), (6, n, 2), (6, n, 2)))
        (_, _, (steps, announced, *_)), = protocol.round_blocks(d, n, cat, bells, outcomes)
        replays = [run_round(ProtocolConfig(d, n, *labels), forced_outcomes=forced)
                   for *labels, forced in zip(cat, bells, outcomes)]
        parties = range(2, n + 1)
        for size in range(0, n - 1):
            for subset in itertools.combinations(parties, size):
                posterior = collusion_posterior(d, transcript, subset)
                assert posterior == (Fraction(1, d),) * d
                counts = protocol.collusion_counts(d, cat, bells, steps, announced, subset)
                assert counts.shape == (6, d)
                for row, replay in zip(counts.tolist(), replays):
                    assert tuple(Fraction(c, d ** (n - 1 - size)) for c in row) == \
                        collusion_posterior(d, replay, subset)


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
    cat, bells, (steps, announced, *_) = protocol._row(transcript)
    arrays = (cat, bells, steps, announced)
    with pytest.raises(ValueError, match="every party 2..n is colluding"):
        collusion_posterior(3, transcript, {2, 3})
    with pytest.raises(ValueError, match="every party 2..n is colluding"):
        protocol.collusion_counts(3, *arrays, {2, 3})
    for outside in ({1}, {4}, {2, 0}):
        for call in (lambda: collusion_posterior(3, transcript, outside),
                     lambda: protocol.collusion_counts(3, *arrays, outside),
                     lambda: oracle_view_counts(transcript.config, outside)):
            with pytest.raises(ValueError, match=r"^colluding parties must lie in 2\.\.3$"):
                call()


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


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
def test_oracle_view_counts_tally_the_branches(d, n):
    # Every strict subset of parties 2..n sees each first key dit equally
    # often in every view class; all of 2..n together see one dit per class,
    # pooled recovery read from the amplitudes. The tally equals, class for
    # class and in order, a tally of enumerate_oracle_branches' Transcripts.
    config = random_config(d, n, np.random.default_rng(d * n))
    branches = enumerate_oracle_branches(config)
    for size in range(n):
        for known in itertools.combinations(range(2, n + 1), size):
            classes = {}
            for branch in branches:
                view = (branch.announced,
                        tuple(branch.outcomes[i - 1] for i in known))
                classes.setdefault(view, []).append(branch.key[0])
            counts = oracle_view_counts(config, known[::-1])
            assert list(counts.items()) == [
                (view, [firsts.count(w) for w in range(d)])
                for view, firsts in classes.items()]
            assert sum(map(sum, counts.values())) == d ** (2 * n)
            for firsts in counts.values():
                if size < n - 1:
                    assert firsts == [firsts[0]] * d and firsts[0] > 0
                else:
                    assert sum(c > 0 for c in firsts) == 1
    for outside in ([1], [n + 1], [2, 0]):
        with pytest.raises(ValueError, match="must lie in 2.."):
            oracle_view_counts(config, outside)


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
        with pytest.raises(RuntimeError, match=message):
            oracle_view_counts(zero_config(2, 3), [2])
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
    with pytest.raises(RuntimeError, match="global phase disagrees"):
        oracle_view_counts(zero_config(2, 3), [2])
    assert run_round(config, engine="symbolic",
                     forced_outcomes=forced).outcomes == tuple(forced)


def test_dense_checks_fail_on_nan(monkeypatch):
    # NaN compares false with everything, so each dense check passes only a
    # value within its tolerance: NaN overlaps fail the step's probability
    # check, NaN end cats the modulus check and NaN roots the phase check.
    overlap_pass, finish = protocol.cat_overlaps, protocol._finish_block
    amplitudes, root = protocol.cat_amplitudes, protocol.zeta

    def nan_overlaps(*args):
        rest, overlaps = overlap_pass(*args)
        return rest, overlaps * np.nan

    def nan_end_cats(d, n, block):
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "cat_amplitudes",
                          lambda d, labels: amplitudes(d, labels) * np.nan)
            return finish(d, n, block)

    config = random_config(3, 3, np.random.default_rng(2))
    forced = [(1, 2), (0, 1), (2, 2)]
    for name, fault, message in (
            ("cat_overlaps", nan_overlaps, r"party 1 outcome \(0,0\) has probability nan"),
            ("_finish_block", nan_end_cats, "not the announced cat state"),
            ("zeta", lambda d, t: root(d, t) * np.nan, "global phase disagrees")):
        with monkeypatch.context() as patch:
            patch.setattr(protocol, name, fault)
            with pytest.raises(RuntimeError, match=message):
                run_round(config, engine="statevector", forced_outcomes=forced)
            with pytest.raises(RuntimeError, match=message):
                enumerate_oracle_branches(zero_config(2, 3))
    assert run_round(config, engine="statevector", forced_outcomes=forced).outcomes == \
        tuple(forced)


def test_block_checks_read_every_row(monkeypatch):
    # The budget makes blocks of 3 branches at d=2, n=3. A fault in only the
    # last row of each multi-row block is caught, whether it sits in a step's
    # overlaps or rewrite or in the end check's reference cats. The same
    # faults in the last round of a statevector round_blocks block of 3
    # rounds are caught too, at party 1, where that block already has 3 rows.
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

    def end_check_scaled(d, n, block):
        # the start cats and Bell factors also come from cat_amplitudes;
        # scale only the end check's reference cats
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "cat_amplitudes", last_row_scaled_cat)
            return finish(d, n, block)

    def rounds():
        rng = np.random.default_rng(4)
        return list(protocol.round_blocks(2, 3, rng.integers(0, 2, (3, 3)),
                                          rng.integers(0, 2, (3, 3, 2)),
                                          rng.integers(0, 2, (3, 3, 2)), "statevector"))

    overlap_pass, finish = protocol.cat_overlaps, protocol._finish_block
    rewrite, amplitudes = protocol.bell_measure_block, protocol.cat_amplitudes
    config = zero_config(2, 3)
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", 3 * 2 ** 5)
    monkeypatch.setattr(protocol, "cat_overlaps", last_row_scaled)
    with pytest.raises(RuntimeError, match=r"party 2 outcome \(0,0\) has probability"):
        enumerate_oracle_branches(config)
    with pytest.raises(RuntimeError, match=r"party 2 outcome \(0,0\) has probability"):
        oracle_view_counts(config, [3])
    with pytest.raises(RuntimeError, match=r"party 1 outcome \(0,0\) has probability"):
        rounds()
    monkeypatch.setattr(protocol, "cat_overlaps", overlap_pass)
    monkeypatch.setattr(protocol, "bell_measure_block", last_row_duplicate)
    with pytest.raises(RuntimeError, match="party 2's outcomes name 3 Bell states"):
        enumerate_oracle_branches(config)
    with pytest.raises(RuntimeError, match="party 2's outcomes name 3 Bell states"):
        oracle_view_counts(config, [3])
    with pytest.raises(RuntimeError, match="party 1's outcomes name 3 Bell states"):
        rounds()
    monkeypatch.setattr(protocol, "bell_measure_block", rewrite)
    monkeypatch.setattr(protocol, "_finish_block", end_check_scaled)
    for factor, message in ((np.exp(0.1j), "global phase disagrees"),
                            (1.1, "not the announced cat state")):
        with pytest.raises(RuntimeError, match=message):
            enumerate_oracle_branches(config)
        with pytest.raises(RuntimeError, match=message):
            oracle_view_counts(config, [3])
        with pytest.raises(RuntimeError, match=message):
            rounds()
    monkeypatch.setattr(protocol, "_finish_block", finish)
    assert len(enumerate_oracle_branches(config)) == 64
    assert sum(map(sum, oracle_view_counts(config, [3]).values())) == 64
    assert [len(cat) for cat, _, _ in rounds()] == [3]


def test_oracle_is_the_symbolic_engine_under_forced_outcomes(monkeypatch):
    # The oracle's dense walk against the symbolic engine one forced outcome
    # sequence at a time: one rewrite, but only the oracle reads outcomes
    # and phases from amplitudes. Field for field, in order, and the same
    # with one branch per block and with the whole tree in one.
    rng, default = np.random.default_rng(12), statevec.BLOCK_AMPLITUDES
    for d, n in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
        config = random_config(d, n, rng)
        pairs = itertools.product(range(d), repeat=2)
        expected = [dataclasses.replace(run_round(config, "symbolic", forced_outcomes=o),
                                        engine="statevector")
                    for o in itertools.product(pairs, repeat=n)]
        for budget in (default, 1, d ** (4 * n + 2)):
            monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget)
            assert enumerate_oracle_branches(config) == expected


def test_library_dense_calls_refuse_over_cap_before_building(monkeypatch):
    # with the cap at 3^5, d=3 n=4 needs 3^6-amplitude dense steps: every
    # library entry point of the dense engine refuses before kron_rows runs
    def no_kron(*args):
        raise AssertionError("kron_rows ran before the cap check")

    monkeypatch.setattr(statevec, "MAX_AMPLITUDES", 3**5)
    monkeypatch.setattr(statevec, "kron_rows", no_kron)
    monkeypatch.setattr(protocol, "kron_rows", no_kron)
    config = zero_config(3, 4)
    with pytest.raises(ValueError, match="cap"):
        run_round(config, "statevector", forced_outcomes=[(1, 2)] * 4)
    with pytest.raises(ValueError, match="cap"):
        list(protocol.round_blocks(3, 4, [config.cat_labels], [config.bell_labels],
                                   [[(1, 2)] * 4], "statevector"))
    with pytest.raises(ValueError, match="cap"):
        enumerate_oracle_branches(config)
    with pytest.raises(ValueError, match="cap"):
        oracle_view_counts(config, [2])
    assert run_round(config, forced_outcomes=[(1, 2)] * 4).key == (2, 2)


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
