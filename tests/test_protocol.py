import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from quditswap import protocol, statevec
from quditswap.catbell import cat_support
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
    with pytest.raises(ValueError, match=r"^3 parties but Bell labels of shape \(2, 2\)$"):
        ProtocolConfig(2, 3, (0, 0, 0), ((0, 0),) * 2)
    with pytest.raises(ValueError, match="^the protocol needs at least 2 parties$"):
        list(protocol.round_blocks(2, 1, [[0]], [[(0, 0)]], [[(0, 0)]]))
    # a party count that is no integer is refused, even one equal to 3
    for n in (3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="^the protocol needs at least 2 parties$"):
            ProtocolConfig(2, n, (0, 0, 0), ((0, 0),) * 3)
        with pytest.raises(ValueError, match="^the protocol needs at least 2 parties$"):
            list(protocol.round_blocks(2, n, [[0] * 3], [[(0, 0)] * 3], [[(0, 0)] * 3]))



def test_config_seed_is_none_or_a_non_negative_int():
    # a numpy integer seed is stored as an int, so its record is JSON; a
    # bool, a negative or a non-integer seed is refused when the config is
    # built, not inside a round. round_records, which takes a seed without
    # a config, writes and refuses seeds by the same check.
    (cat, bells, fields), = protocol.round_blocks(2, 3, [(0,) * 3], [((0, 0),) * 3],
                                                  [((1, 0),) * 3])

    def record_seed(seed):
        _, texts = protocol.round_records(2, 3, seed, "symbolic", cat, bells, fields)
        return json.loads(next(texts)[1:])["seed"]

    for seed, stored in ((np.int64(3), 3), (np.uint64(2**64 - 1), 2**64 - 1),
                         (0, 0), (None, None)):
        config = zero_config(2, 3, seed=seed)
        assert config.seed == stored and type(config.seed) is type(stored)
        assert transcript_to_json_dict(run_round(config))["seed"] == stored
        assert record_seed(seed) == stored and type(record_seed(seed)) is type(stored)
    for seed in (True, False, -1, -5, np.int64(-1), 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="^seed must be None or a non-negative integer"):
            zero_config(2, 3, seed=seed)
        with pytest.raises(ValueError, match="^seed must be None or a non-negative integer"):
            record_seed(seed)


def test_party_view_shape():
    transcript = run_round(zero_config(2, 3), forced_outcomes=[(1, 1), (0, 1), (1, 0)])
    views = make_party_views(transcript)
    assert [view.party for view in views] == [2, 3]
    with pytest.raises(ValueError):
        PartyView(party=1, d=2, n=3, cat_labels=(0, 0, 0),
                  bell_labels=((0, 0),) * 3, outcome=(0, 0),
                  final_bell=(0, 0), announced=(0, 0, 0))
    # a party id must be an integer: a float one fails the recoveries' indexing
    for party in (2.0, np.float64(2.0), 2.5):
        with pytest.raises(ValueError, match="^views exist for parties 2..n only$"):
            dataclasses.replace(views[0], party=party)


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


def test_round_arrays_of_mismatched_shapes_are_refused():
    # recover_rounds and collusion_counts read one block's arrays; any array
    # whose shape disagrees with cat (R, n) raises instead of broadcasting
    rng = np.random.default_rng(24)
    d, n, count = 3, 3, 4
    cat, bells = rng.integers(0, d, (count, n)), rng.integers(0, d, (count, n, 2))
    (_, _, (steps, announced, key, finals, _)), = protocol.round_blocks(
        d, n, cat, bells, rng.integers(0, d, (count, n, 2)))
    arrays = [cat, bells, steps, announced, key, finals]
    assert protocol.recover_rounds(d, *arrays)[2].all()
    # one label row against four rounds, and finals of one column, among them
    wrong = [(0, cat[:1]), (0, cat[:, :2]), (0, cat[0]), (1, bells[:, :2]),
             (1, bells[..., :1]), (2, steps[:3]), (2, steps[:, :2]), (3, announced[:, :2]),
             (3, announced[:, None]), (4, key[:3]), (4, key[:, None]), (5, finals[:, :1]),
             (5, finals[:, None]), (5, np.concatenate([finals, finals], axis=1))]
    for place, bad in wrong:
        mixed = arrays[:place] + [bad] + arrays[place + 1:]
        with pytest.raises(ValueError, match="round arrays of shapes"):
            protocol.recover_rounds(d, *mixed)
        if place < 4:
            with pytest.raises(ValueError, match="round arrays of shapes"):
                protocol.collusion_counts(d, *mixed[:4], [2])
    assert protocol.collusion_counts(d, *arrays[:4], [2]).shape == (count, d)


def test_round_readers_and_views_refuse_a_bad_dimension():
    # every round reader and a view refuse a d that validate_dimension
    # refuses, rather than return fractional dits or raise a raw TypeError
    transcript = run_round(zero_config(3, 3), forced_outcomes=[(1, 2)] * 3)
    cat, bells, fields = protocol._row(transcript)
    for d in (2.5, 3.0, 17, True):
        with pytest.raises(ValueError, match="^dimension must be"):
            protocol.recover_rounds(d, cat, bells, *fields[:4])
        with pytest.raises(ValueError, match="^dimension must be"):
            protocol.collusion_counts(d, cat, bells, *fields[:2], [2])
        with pytest.raises(ValueError, match="^dimension must be"):
            protocol.round_records(d, 3, None, "symbolic", cat, bells, fields)
    view = make_party_views(transcript)[0]
    with pytest.raises(ValueError, match="^dimension must be"):
        dataclasses.replace(view, d=2.5)
    for n in (3.0, np.float64(3.0), 1):
        with pytest.raises(ValueError, match="^the protocol needs at least 2 parties$"):
            dataclasses.replace(view, n=n)


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
    for outside in ({1}, {4}, {2, 0}, {2.7}, {True}, {"2"}):
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
    # class, a tally of enumerate_oracle_branches' Transcripts sorted by view.
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
            assert list(counts.items()) == sorted(
                (view, [firsts.count(w) for w in range(d)])
                for view, firsts in classes.items())
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


CHILD = "is not the cat of its rewritten labels times zeta\\^phase"


def fault_reference(patch, fault):
    """Apply fault(values) to the reference cats that _check_children reads
    from cat_support, and to nothing else: the start cats and the Bell pairs
    come from cat_support too, outside the check."""
    check, support = protocol._check_children, protocol.cat_support

    def faulted(d, labels, places=None):
        index, values = support(d, labels, places)
        return index, fault(values)

    def checked(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(protocol, "cat_support", faulted)
            check(*args)

    patch.setattr(protocol, "_check_children", checked)


def test_dense_engine_checks_end_state_and_phase(monkeypatch):
    # The dense engine reads labels and phase from the array rewrite. Each
    # wrap shifts them by one unit per step, and every child is checked
    # against the cat of its rewritten labels times zeta^phase, so the first
    # step already fails.
    def shift_phase(measured, residual, delta, particles):
        return measured, residual, delta + 1, particles

    def shift_residual(measured, residual, delta, particles):
        residual = residual.copy()
        residual[..., 0] += 1
        return measured, residual, delta, particles

    rewrite = protocol.bell_measure_block
    config = random_config(3, 4, np.random.default_rng(8))
    forced = [(1, 2), (0, 1), (2, 2), (1, 0)]
    for shift in (shift_phase, shift_residual):
        monkeypatch.setattr(protocol, "bell_measure_block",
                            lambda *args, shift=shift: shift(*rewrite(*args)))
        with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,2\) {CHILD}"):
            run_round(config, engine="statevector", forced_outcomes=forced)
        with pytest.raises(RuntimeError, match=rf"party 1 outcome \(0,0\) {CHILD}"):
            enumerate_oracle_branches(zero_config(2, 3))
        with pytest.raises(RuntimeError, match=rf"party 1 outcome \(0,0\) {CHILD}"):
            oracle_view_counts(zero_config(2, 3), [2])
        assert run_round(config, engine="symbolic",
                         forced_outcomes=forced).outcomes == tuple(forced)

    # a phase that is no power of zeta on the reference cats fails too
    monkeypatch.setattr(protocol, "bell_measure_block", rewrite)
    fault_reference(monkeypatch, lambda values: values * np.exp(0.1j))
    with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,2\) {CHILD}"):
        run_round(config, engine="statevector", forced_outcomes=forced)
    with pytest.raises(RuntimeError, match=rf"party 1 outcome \(0,0\) {CHILD}"):
        enumerate_oracle_branches(zero_config(2, 3))
    with pytest.raises(RuntimeError, match=rf"party 1 outcome \(0,0\) {CHILD}"):
        oracle_view_counts(zero_config(2, 3), [2])
    assert run_round(config, engine="symbolic",
                     forced_outcomes=forced).outcomes == tuple(forced)


def test_dense_checks_fail_on_nan(monkeypatch):
    # NaN compares false with everything, so each dense check passes only a
    # value within its tolerance: NaN overlaps fail the step's probability
    # check, NaN reference cats and NaN roots the child check.
    overlap_pass, root = protocol.cat_overlaps, protocol.zeta

    def nan_overlaps(*args):
        residuals, overlaps = overlap_pass(*args)
        return residuals, overlaps * np.nan

    def nan_reference_cats(patch):
        fault_reference(patch, lambda values: values * np.nan)

    def nan_roots(patch):
        patch.setattr(protocol, "zeta", lambda d, t: root(d, t) * np.nan)

    config = random_config(3, 3, np.random.default_rng(2))
    forced = [(1, 2), (0, 1), (2, 2)]
    probability = r"party 1 outcome \(0,0\) has probability nan"
    for fault, message, oracle_message in (
            (lambda patch: patch.setattr(protocol, "cat_overlaps", nan_overlaps),
             probability, probability),
            (nan_reference_cats, rf"party 1 outcome \(1,2\) {CHILD}",
             rf"party 1 outcome \(0,0\) {CHILD}"),
            (nan_roots, rf"party 1 outcome \(1,2\) {CHILD}",
             rf"party 1 outcome \(0,0\) {CHILD}")):
        with monkeypatch.context() as patch:
            fault(patch)
            with pytest.raises(RuntimeError, match=message):
                run_round(config, engine="statevector", forced_outcomes=forced)
            with pytest.raises(RuntimeError, match=oracle_message):
                enumerate_oracle_branches(zero_config(2, 3))
    assert run_round(config, engine="statevector", forced_outcomes=forced).outcomes == \
        tuple(forced)


def test_block_checks_read_every_row(monkeypatch):
    # The budget makes blocks of 3 branches. A fault in only the last row
    # of each multi-row block is caught, whether it sits in a step's
    # overlaps, residual indices or rewrite or in the child check's
    # reference cats. The same faults in the last round of a statevector
    # round_blocks block of 3 rounds are caught too, at party 1, where that
    # block already has 3 rows.
    def last_row_scaled(*args):
        residuals, overlaps = overlap_pass(*args)
        if len(overlaps) > 1:
            overlaps[-1] *= 1.1
        return residuals, overlaps

    def last_row_reordered(*args):
        # the residual indices of the last row out of order, its values not
        residuals, overlaps = overlap_pass(*args)
        if len(residuals) > 1:
            residuals[-1] = residuals[-1, :, ::-1]
        return residuals, overlaps

    def last_row_duplicate(*args):
        measured, residual, delta, particles = rewrite(*args)
        if len(measured) > 1:
            measured = measured.copy()
            measured[-1, -1] = measured[-1, 0]
        return measured, residual, delta, particles

    def last_reference_scaled(values):
        if len(values) > 1:
            values[-1] *= factor
        return values

    def rounds():
        rng = np.random.default_rng(4)
        return list(protocol.round_blocks(2, 3, rng.integers(0, 2, (3, 3)),
                                          rng.integers(0, 2, (3, 3, 2)),
                                          rng.integers(0, 2, (3, 3, 2)), "statevector"))

    overlap_pass, rewrite = protocol.cat_overlaps, protocol.bell_measure_block
    config = zero_config(2, 3)
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", 3 * 2 ** 3)
    assert statevec.block_rows(2, 3) == 3
    monkeypatch.setattr(protocol, "cat_overlaps", last_row_scaled)
    with pytest.raises(RuntimeError, match=r"party 2 outcome \(0,0\) has probability"):
        enumerate_oracle_branches(config)
    with pytest.raises(RuntimeError, match=r"party 2 outcome \(0,0\) has probability"):
        oracle_view_counts(config, [3])
    with pytest.raises(RuntimeError, match=r"party 1 outcome \(0,0\) has probability"):
        rounds()
    monkeypatch.setattr(protocol, "cat_overlaps", last_row_reordered)
    with pytest.raises(RuntimeError, match=rf"party 2 outcome \(0,0\) {CHILD}"):
        enumerate_oracle_branches(config)
    with pytest.raises(RuntimeError, match=rf"party 2 outcome \(0,0\) {CHILD}"):
        oracle_view_counts(config, [3])
    with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,0\) {CHILD}"):
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
    with monkeypatch.context() as patch:
        fault_reference(patch, last_reference_scaled)
        for factor in (np.exp(0.1j), 1.1):
            with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,1\) {CHILD}"):
                enumerate_oracle_branches(config)
            with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,1\) {CHILD}"):
                oracle_view_counts(config, [3])
            with pytest.raises(RuntimeError, match=rf"party 1 outcome \(1,0\) {CHILD}"):
                rounds()
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


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3)])
def test_dense_step_builds_only_the_kept_children(d, n):
    # The statevector rounds keep one child per branch and build only those:
    # on multi-row blocks, at every step, the step's children at keep are
    # the full step's rows at keep, in keep's order, repeats included.
    rng = np.random.default_rng(d * n)
    block = protocol._dense_start(d, n, rng.integers(0, d, (4, n)))
    for i in range(1, n + 1):
        bell = rng.integers(0, d, (len(block.phase), 2))
        full, codes = protocol._dense_step(d, n, bell, i, block)
        keep = rng.integers(0, len(full.phase), len(block.phase) + 1)
        kept, kept_codes = protocol._dense_step(d, n, bell, i, block, keep)
        assert kept.particles == full.particles
        for got, want in ((kept.labels, full.labels), (kept.phase, full.phase),
                          (kept_codes, codes)):
            assert np.array_equal(got, want[keep])
        assert np.array_equal(kept.index, full.index[keep])
        assert kept.values.shape == full.values[keep].shape
        assert np.max(np.abs(kept.values - full.values[keep])) <= 1e-12
        block = kept


def test_class_walk_is_the_per_branch_dense_engine(monkeypatch):
    # The oracle runs the dense step once per cat-label class and reads each
    # branch's fields through integer tables; the statevector rounds run it
    # on every branch on its own. Field for field, in outcome order, the two
    # agree, with the default blocks and with one row per block; the walk
    # hands _dense_step at most n * d^n rows, one per class per level.
    step, default = protocol._dense_step, statevec.BLOCK_AMPLITUDES
    received = []

    def counted(d, n, bell, i, block, keep=None):
        received.append(len(block.phase))
        return step(d, n, bell, i, block, keep)

    rng = np.random.default_rng(20)
    monkeypatch.setattr(protocol, "_dense_step", counted)
    for d, n in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
        config = random_config(d, n, rng)
        outcomes = list(itertools.product(itertools.product(range(d), repeat=2), repeat=n))
        count = len(outcomes)
        expected = [np.concatenate(field) for field in zip(*(
            fields for _, _, fields in protocol.round_blocks(
                d, n, [config.cat_labels] * count, [config.bell_labels] * count, outcomes,
                "statevector")))]
        for budget in (default, 1):
            monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget)
            received.clear()
            walk = [np.concatenate(field) for field in zip(*protocol._oracle_blocks(config))]
            assert [field.shape for field in walk] == [field.shape for field in expected]
            assert all(np.array_equal(a, b) for a, b in zip(walk, expected))
            assert sum(received) <= n * d ** n
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", default)
    received.clear()
    assert sum(map(sum, oracle_view_counts(random_config(2, 7, rng), [2]).values())) == 4 ** 7
    assert sum(received) <= 469  # 1 + 4 + 16 + 64 + 3 * 128, against 5,461 branches


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3)])
def test_class_check_catches_a_phase_on_one_branch(monkeypatch, d, n):
    # A global phase on every child of the last class row at the last step
    # keeps each probability at 1/d^2 and the d^2 outcomes distinct. Those
    # children are no class's representative (each class already has a
    # member), so a check of representatives only would never see them:
    # the child check, which reads every child of every step, catches it.
    overlap_pass = protocol.cat_overlaps

    def last_row_turned(d, particles, index, values, pair, rest):
        residuals, overlaps = overlap_pass(d, particles, index, values, pair, rest)
        if pair == protocol.measurement_pair(n, n) and len(overlaps) > 1:
            overlaps[-1] *= np.exp(0.1j)
        return residuals, overlaps

    config = random_config(d, n, np.random.default_rng(d + n))
    monkeypatch.setattr(protocol, "cat_overlaps", last_row_turned)
    message = f"party {n} outcome \\(0,0\\) {CHILD}"
    with pytest.raises(RuntimeError, match=message):
        enumerate_oracle_branches(config)
    with pytest.raises(RuntimeError, match=message):
        oracle_view_counts(config, [2])
    monkeypatch.setattr(protocol, "cat_overlaps", overlap_pass)
    assert len(enumerate_oracle_branches(config)) == d ** (2 * n)


def test_end_check_reads_the_register_order():
    # A child's support indices are packed in its register order: the child
    # check passes a block of cats as built, and fails the same cats with
    # their indices packed in another particle order.
    d, n, rng = 3, 3, np.random.default_rng(19)
    particles = (1, 8, 10)
    labels, phase = rng.integers(0, d, (5, n)), rng.integers(0, d, 5)
    roots = np.array([protocol.zeta(d, t) for t in range(d)])
    index, values = cat_support(d, labels)
    places = d ** np.arange(n - 1, -1, -1)
    permuted = (index[..., None] // places % d)[..., [2, 0, 1]] @ places
    assert not np.array_equal(np.sort(index, axis=1), np.sort(permuted, axis=1))

    def block(index):
        order = np.argsort(index, axis=1)
        return protocol._Block(particles, labels, np.take_along_axis(index, order, axis=1),
                               np.take_along_axis(values, order, axis=1)
                               * roots[phase][:, None], phase)

    protocol._check_children(d, 1, block(index), np.arange(5))
    with pytest.raises(RuntimeError, match=rf"party 1 outcome \(0,0\) {CHILD}"):
        protocol._check_children(d, 1, block(permuted), np.arange(5))


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


def test_oracle_refuses_more_branches_than_the_cap(monkeypatch):
    # A level of the oracle's class pass holds up to d^n representatives of
    # d^n amplitudes, one per branch. With the cap at 2^10, d=2 n=6 rounds
    # run on steps of 2^8 amplitudes, but the oracle's 2^12 branches are
    # refused before any step runs.
    monkeypatch.setattr(statevec, "MAX_AMPLITUDES", 2**10)
    config = zero_config(2, 6)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_dense_step", None)
        with pytest.raises(ValueError, match="4096 amplitudes, above the 1024 cap"):
            enumerate_oracle_branches(config)
        with pytest.raises(ValueError, match="4096 amplitudes, above the 1024 cap"):
            oracle_view_counts(config, [2])
    transcript = run_round(config, "statevector", forced_outcomes=[(1, 0)] * 6)
    assert transcript.outcomes == ((1, 0),) * 6


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
    # a hand-built transcript with a value outside 0..d-1 has no record
    for bad in ({"key": (2, 0)}, {"announced": (0, -1, 0)}):
        with pytest.raises(ValueError, match="^record values must be dits in 0..1$"):
            transcript_to_json_dict(dataclasses.replace(transcript, **bad))


def dict_record_lines(d, n, seed, engine, cat, bells, fields):
    """The protocol record encoder from before the record template, kept as
    the reference: one dict per round, then json.dumps(record, sort_keys=True)."""
    steps, announced, key, finals, _ = fields
    second, first, ok = protocol.recover_rounds(d, cat, bells, steps, announced, key, finals)
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
    return [json.dumps(record, sort_keys=True) for record in records]


def report_layout(*args):
    """dict_record_lines as the protocol report lays its records out, each
    led by ",\n" and four spaces: the text round_records' ASCII chunks join
    to."""
    return "".join(",\n    " + line for line in dict_record_lines(*args))


@pytest.mark.parametrize("d, n", [(2, 2), (3, 4), (7, 5), (16, 3)])
def test_round_records_are_the_dict_encoder(monkeypatch, d, n):
    # round_records fills one NUL-slot byte template per block; its joined
    # chunks must be ASCII and the dict encoder's records in report layout
    # (each led by ",\n" and four spaces) byte for byte, on both engines, for
    # seeds None, 0 and 2^64 - 1, and on rounds whose ok is false: a zero
    # sign in one role (as in the CLI test
    # test_protocol_verdicts_are_the_one_round_verdicts) makes the symbolic
    # rewrite drop k or l, which the dense engine refuses.
    rng = np.random.default_rng(d * n)

    def lines_agree(engine, count, names):
        draw = (rng.integers(0, d, (count, n)), rng.integers(0, d, (count, n, 2)),
                rng.integers(0, d, (count, n, 2)))
        verdicts = []
        for cat, bells, fields in protocol.round_blocks(d, n, *draw, engine):
            for name, seed in itertools.product(names, (None, 0, 2**64 - 1)):
                ok, chunks = protocol.round_records(d, n, seed, name, cat, bells, fields)
                text = b"".join(chunks).decode("ascii")
                assert text == report_layout(d, n, seed, name, cat, bells, fields)
                records = json.loads("[" + text[1:] + "]")
                assert [record["ok"] for record in records] == ok.tolist()
            verdicts += ok.tolist()
        assert len(verdicts) == count
        return verdicts

    for engine in protocol.ENGINES:
        assert all(lines_agree(engine, 2 if d**n > 999 else 40, [engine]))
    roles = protocol._ROLE_SIGNS
    for role, signs in ((0, (0, 1)), (1, (1, 0))):
        monkeypatch.setattr(protocol, "_ROLE_SIGNS",
                            roles[:role] + (signs,) + roles[role + 1:])
        verdicts = lines_agree("symbolic", 40, protocol.ENGINES)
        assert not all(verdicts)
    block = next(protocol.round_blocks(d, n, [[0] * n], [[[0, 0]] * n], [[[0, 0]] * n]))
    record = json.loads(next(protocol.round_records(d, n, 0, "symbolic", *block)[1])[1:])
    assert len(record["recovered"]["second_per_party"]) == n - 1
    with pytest.raises(ValueError, match="parties but cat labels"):
        protocol.round_records(d, n + 1, 0, "symbolic", *block)


def test_round_records_fill_edges(monkeypatch):
    # round_records' byte fill against the dict encoder where its slots and
    # chunks change: no rows; d = 16 with every value at most 9, so each
    # two-byte slot carries a pad; engine names holding %, NUL and non-ASCII
    # text; and chunks of one row and of a few, with ok false on both sides
    # of chunk edges. A value outside 0..d-1, negative or at least d, in the
    # cat labels, the Bell labels or a field (a key code) is refused.
    d, n, count = 3, 3, 40
    rng = np.random.default_rng(25)
    (cat, bells, fields), = protocol.round_blocks(
        d, n, rng.integers(0, d, (count, n)), rng.integers(0, d, (count, n, 2)),
        rng.integers(0, d, (count, n, 2)))
    steps, announced, key, finals, phase = fields
    wrong = [2, 3, 5, 6, 39]
    key = key.copy()
    key[wrong] = (key[wrong] + 1) % d**2
    fields = steps, announced, key, finals, phase

    def lines_agree(engine, cat, bells, fields, seed=0, d=d):
        ok, chunks = protocol.round_records(d, n, seed, engine, cat, bells, fields)
        text = b"".join(chunks).decode("ascii")
        assert text == report_layout(d, n, seed, engine, cat, bells, fields)
        return ok.tolist()

    ok, chunks = protocol.round_records(d, n, 0, "symbolic", cat[:0], bells[:0],
                                        tuple(field[:0] for field in fields))
    assert ok.shape == (0,) and list(chunks) == []
    verdicts = [i not in wrong for i in range(count)]
    small = protocol.round_blocks(16, n, rng.integers(0, 3, (count, n)) + [2, 0, 0],
                                  rng.integers(0, 3, (count, n, 2)),
                                  rng.integers(0, 2, (count, n, 2)))
    (small_cat, small_bells, small_fields), = small
    dits = [small_fields[1], *np.divmod(small_fields[2], 16), *np.divmod(small_fields[0], 16)]
    assert max(int(field.max()) for field in dits) <= 9
    assert all(lines_agree("symbolic", small_cat, small_bells, small_fields, d=16))
    for engine in ("%d%%s %", "a\x00b\n", "ünï ☃", ""):
        assert lines_agree(engine, cat, bells, fields, None) == verdicts
    for bad in (-1, d):
        bad_cat, bad_bells, bad_key = cat.copy(), bells.copy(), key.copy()
        bad_cat[7, 1], bad_bells[9, 2, 0], bad_key[11] = bad, bad, d * d if bad > 0 else -1
        for arrays in ((bad_cat, bells, fields), (cat, bad_bells, fields),
                       (cat, bells, (steps, announced, bad_key, finals, phase))):
            with pytest.raises(ValueError, match=r"^record values must be dits in 0\.\.2$"):
                protocol.round_records(d, n, 0, "symbolic", *arrays)
    for budget in (1, 50):  # 16 bytes a unit: chunks of one row, and of a few
        monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget)
        assert lines_agree("statevector", cat, bells, fields) == verdicts
        assert lines_agree("symbolic", cat, bells, fields, 2**64 - 1) == verdicts


@pytest.mark.parametrize("rows", [1, 7])
def test_oracle_view_counts_merge_across_blocks(monkeypatch, rows):
    # Leaf blocks of one or seven branches make most classes first appear
    # in a later block, where only the new keys merge into the keys so far;
    # the tally must equal the one-block tally, class for class and in
    # ascending view order.
    d, n = 3, 3
    config = random_config(d, n, np.random.default_rng(33))
    coalitions = [known for size in range(n)
                  for known in itertools.combinations(range(2, n + 1), size)]
    whole = [list(oracle_view_counts(config, known).items()) for known in coalitions]
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", rows * n)
    assert [list(oracle_view_counts(config, known).items())
            for known in coalitions] == whole


def test_oracle_view_tally_inserts_only_new_classes(monkeypatch):
    # With one branch per leaf block, most blocks add no view class; such a
    # block must copy nothing, so the sorted keys and their tally rows take
    # at most two np.insert calls per class, not two per block.
    d, n = 3, 3
    config = random_config(d, n, np.random.default_rng(33))
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", n)
    calls, insert = [], np.insert

    def counted(*args, **kwargs):
        calls.append(1)
        return insert(*args, **kwargs)
    monkeypatch.setattr(np, "insert", counted)
    for size in range(n):
        for known in itertools.combinations(range(2, n + 1), size):
            calls.clear()
            _, counts = protocol.oracle_view_tally(config, known)
            assert 0 < len(calls) <= 2 * len(counts)
            if size < n - 1:
                assert 2 * len(counts) < d ** (2 * n)  # fewer classes than blocks
            assert counts.sum() == d ** (2 * n)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
def test_oracle_view_tally_is_the_dict(monkeypatch, d, n):
    # For every coalition, the array tally, decoded here digit by digit, is
    # oracle_view_counts' dict item for item, its rows strictly ascending as
    # digit tuples: with the default leaf blocks and with blocks of one and
    # seven branches, where most classes first appear in a later block.
    config = random_config(d, n, np.random.default_rng(d * n))
    for budget in (statevec.BLOCK_AMPLITUDES, n, 7 * n):
        monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget)
        for size in range(n):
            for known in itertools.combinations(range(2, n + 1), size):
                views, counts = protocol.oracle_view_tally(config, known)
                assert views.dtype.kind == counts.dtype.kind == "i"
                assert views.shape == (len(counts), n + 2 * size)
                assert counts.shape == (len(counts), d)
                rows = list(map(tuple, views.tolist()))
                assert all(a < b for a, b in zip(rows, rows[1:]))
                decoded = [((tuple(view[:n]), tuple((view[n + 2 * j], view[n + 2 * j + 1])
                                                    for j in range(size))), firsts)
                           for view, firsts in zip(views.tolist(), counts.tolist())]
                assert decoded == list(oracle_view_counts(config, known).items())


def split_inputs(inputs, n):
    """Rows of round inputs (R, 5n) as (cat (R, n), bells (R, n, 2),
    outcomes (R, n, 2)), round_matrix's row order."""
    return (inputs[:, :n], inputs[:, n:3 * n].reshape(-1, n, 2),
            inputs[:, 3 * n:].reshape(-1, n, 2))


def stepwise_rounds(d, n, cat, bells, outcomes):
    """The symbolic engine from before round_matrix, kept as the reference:
    one reduced _party_rewrite per step, its labels and phase deltas
    summed; the five field arrays round_blocks yields."""
    particles, labels, codes, phase = tuple(range(1, n + 1)), cat, [], 0
    for i in range(1, n + 1):
        measured, labels, delta, particles = protocol._party_rewrite(
            d, n, i, particles, labels, bells[:, i - 1], outcomes[:, i - 1])
        codes.append(measured @ (d, 1))
        phase = phase + delta
    return outcomes @ (d, 1), labels, codes[0], np.stack(codes[1:], axis=1), phase % d


def test_round_matrix_entries_are_signs():
    # One read-only integer matrix per n, cached, with entries in {-1, 0, 1}.
    for n in range(2, 12):
        matrix = protocol.round_matrix(n)
        assert matrix.shape == (5 * n, 3 * n) and matrix.dtype.kind == "i"
        assert set(np.unique(matrix).tolist()) <= {-1, 0, 1}
        assert not matrix.flags.writeable and protocol.round_matrix(n) is matrix
    for bad in (1, 2.0, True):
        with pytest.raises(ValueError, match="at least 2 parties"):
            protocol.round_matrix(bad)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 16])
def test_round_matrix_is_the_stepwise_rewrite(d, n):
    # x @ round_matrix(n) % d is the announced cat, key and final Bell pairs
    # that the n reduced steps give, and round_blocks' symbolic fields,
    # phase included, are the steps' fields, on seeded rounds plus the
    # all-zero and all-(d - 1) rounds.
    rng = np.random.default_rng(100 * d + n)
    inputs = np.vstack([rng.integers(0, d, (300, 5 * n)), np.zeros(5 * n, dtype=int),
                        np.full(5 * n, d - 1)])
    fields = stepwise_rounds(d, n, *split_inputs(inputs, n))
    labels = inputs @ protocol.round_matrix(n) % d
    pairs = labels[:, n:].reshape(-1, n, 2) @ (d, 1)
    assert np.array_equal(labels[:, :n], fields[1])
    assert np.array_equal(pairs[:, 0], fields[2]) and np.array_equal(pairs[:, 1:], fields[3])
    (_, _, engine), = protocol.round_blocks(d, n, *split_inputs(inputs, n))
    for got, want in zip(engine, fields, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", range(2, 33))
def test_round_matrix_recovers_every_input(n):
    # recover_rounds' checks are linear in a round's inputs and outputs, so
    # on x @ M each is an integer form in x. ok on the zero input and on
    # every unit input at d = 16 puts each form's coefficients at 0 mod 16;
    # they are small integers, so they are 0 over Z, and every recovery
    # identity holds for every input at every d.
    d = 16
    inputs = np.vstack([np.zeros(5 * n, dtype=int), np.eye(5 * n, dtype=int)])
    labels = inputs @ protocol.round_matrix(n) % d
    cat, bells, outcomes = split_inputs(inputs, n)
    pairs = labels[:, n:].reshape(-1, n, 2) @ (d, 1)
    ok = protocol.recover_rounds(d, cat, bells, outcomes @ (d, 1), labels[:, :n],
                                 pairs[:, 0], pairs[:, 1:])[2]
    assert ok.all()
