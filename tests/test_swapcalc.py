import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditswap import swapcalc
from quditswap.catbell import bell_state
from quditswap.cli import main
from quditswap.core import zeta
from quditswap.statevec import inner_product, permute_to, project_onto
from quditswap.swapcalc import (CatFragment, Register, SwapOutcome,
                                UnsupportedConfigurationError, bell_measure,
                                bell_measure_block, to_statevector, verify_swap_block,
                                verify_swap_identity)


def two_bell_register(d, a_labels, b_labels):
    return Register(d, (CatFragment(d, (1, 2), a_labels),
                        CatFragment(d, (3, 4), b_labels)))


def cat_bell_register(d, cat_labels, bell_labels):
    n = len(cat_labels)
    return Register(d, (CatFragment(d, tuple(range(1, n + 1)), cat_labels),
                        CatFragment(d, (n + 1, n + 2), bell_labels)))


def test_fragment_normalizes_labels():
    fragment = CatFragment(3, (0, 1), (-1, 5))
    assert fragment.labels == (2, 2)
    assert fragment.black_node == 0


def test_fragment_validation():
    with pytest.raises(ValueError):
        CatFragment(2, (0,), (0,))
    with pytest.raises(ValueError):
        CatFragment(2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        CatFragment(2, (0, 1), (1,))


def test_register_validation():
    fragment = CatFragment(2, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        Register(2, (fragment, CatFragment(2, (1, 2), (0, 0))))
    with pytest.raises(ValueError):
        Register(2, (fragment, CatFragment(3, (2, 3), (0, 0))))
    register = Register(2, (fragment,), phase_power=5)
    assert register.phase_power == 1


def test_bell_bell_worked_example():
    # d=2 all-zero Bell pair, outcome (1,1): both fragments flip, phase -1
    register = two_bell_register(2, (0, 0), (0, 0))
    outcome, after = bell_measure(register, (1, 4), outcome=SwapOutcome(1, 1))
    assert outcome == (1, 1)
    by_particles = {f.particles: f.labels for f in after.fragments}
    assert by_particles[(1, 4)] == (1, 1)
    assert by_particles[(3, 2)] == (1, 1)
    assert zeta(2, after.phase_power) == pytest.approx(-1)
    assert after.scale_exponent == 2
    assert float(after.branch_probability()) == pytest.approx(0.25)

    # the dense engine agrees, amplitude for amplitude
    before = to_statevector(register)
    probability, post = project_onto(before, bell_state(2, (1, 4), (1, 1)))
    assert probability == pytest.approx(0.25, abs=1e-12)
    amp = inner_product(bell_state(2, (3, 2), (1, 1)), post)
    assert amp == pytest.approx(zeta(2, after.phase_power), abs=1e-12)


def test_black_node_worked_example():
    register = cat_bell_register(2, (0, 0, 0), (0, 0))
    outcome, after = bell_measure(register, (1, 5), outcome=SwapOutcome(1, 0))
    by_particles = {f.particles: f.labels for f in after.fragments}
    assert by_particles[(4, 2, 3)] == (1, 0, 0)
    assert by_particles[(1, 5)] == (1, 0)
    assert after.phase_power == 0


def test_white_node_worked_example():
    register = cat_bell_register(3, (1, 2, 0), (2, 1))
    outcome, after = bell_measure(register, (4, 3), outcome=SwapOutcome(0, 0))
    by_particles = {f.particles: f.labels for f in after.fragments}
    assert by_particles[(1, 2, 5)] == (1, 2, 1)
    assert by_particles[(4, 3)] == (2, 0)
    assert after.phase_power == 0


def test_swap_rules_match_readme_table():
    # the README's three rows written out literally, every labels and (k, l)
    def check(d, register, pair, k, l, rows, phase):
        _, after = bell_measure(register, pair, outcome=SwapOutcome(k, l))
        assert {f.particles: f.labels for f in after.fragments} == {
            parts: tuple(x % d for x in labels) for parts, labels in rows.items()}
        assert after.phase_power == phase % d

    for d in (2, 3):
        outcomes = list(itertools.product(range(d), repeat=2))
        for u, v in itertools.product(outcomes, repeat=2):
            register = two_bell_register(d, u, v)
            for k, l in outcomes:
                check(d, register, (1, 4), k, l,
                      {(1, 4): (u[0] + k, v[1] + l), (3, 2): (v[0] - k, u[1] - l)},
                      k * l)
        for n in (3, 4):
            s, sp = n + 1, n + 2
            for u in itertools.product(range(d), repeat=n):
                for v, vp in outcomes:
                    register = cat_bell_register(d, u, (v, vp))
                    for k, l in outcomes:
                        check(d, register, (1, sp), k, l,
                              {(1, sp): (u[0] - k, vp + l),
                               (s,) + tuple(range(2, n + 1)):
                                   (v + k,) + tuple(x - l for x in u[1:])},
                              -k * l)
                        for m in range(2, n + 1):
                            parts = list(range(1, n + 1))
                            labels = [u[0] + k] + list(u[1:])
                            parts[m - 1], labels[m - 1] = sp, vp + l
                            check(d, register, (s, m), k, l,
                                  {(s, m): (v - k, u[m - 1] - l),
                                   tuple(parts): tuple(labels)},
                                  k * l)


def test_unsupported_configurations():
    register = two_bell_register(2, (0, 0), (1, 1))
    with pytest.raises(UnsupportedConfigurationError):
        bell_measure(register, (1, 2), outcome=SwapOutcome(0, 0))  # same fragment
    with pytest.raises(UnsupportedConfigurationError):
        bell_measure(register, (2, 4), outcome=SwapOutcome(0, 0))  # white first
    with pytest.raises(UnsupportedConfigurationError):
        bell_measure(register, (1, 3), outcome=SwapOutcome(0, 0))  # black second
    cats = Register(2, (CatFragment(2, (1, 2, 3), (0, 0, 0)),
                        CatFragment(2, (4, 5, 6), (0, 0, 0))))
    with pytest.raises(UnsupportedConfigurationError):
        bell_measure(cats, (1, 5), outcome=SwapOutcome(0, 0))  # cat-cat


def test_verify_identity_exhaustive_small():
    for d in (2, 3):
        for labels in itertools.product(range(d), repeat=4):
            deviation = verify_swap_identity("bell", d, (labels[:2], labels[2:]))
            assert deviation < 1e-9
    for d in (2, 3):
        for flat in itertools.product(range(d), repeat=5):
            cat, bell = flat[:3], flat[3:]
            assert verify_swap_identity("black", d, (cat, bell)) < 1e-9
            for m in (2, 3):
                assert verify_swap_identity("white", d, (cat, bell), m=m) < 1e-9


def test_verify_identity_rule_aliases():
    assert verify_swap_identity("i", 2, ((0, 1), (1, 0))) < 1e-12
    assert verify_swap_identity("i", 3, ((2**70, 1), (0, -5))) < 1e-12  # past int64
    assert verify_swap_identity("ii", 2, ((0, 1, 1), (1, 0))) < 1e-12
    assert verify_swap_identity("iii", 2, ((0, 1, 1), (1, 0)), m=2) < 1e-12
    with pytest.raises(ValueError):
        verify_swap_identity("iv", 2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        verify_swap_identity("white", 2, ((0, 0, 0), (0, 0)))  # missing m
    for rule, labels in (("bell", ((0, 0), (0, 0))), ("black", ((0, 0, 0), (0, 0)))):
        with pytest.raises(ValueError):
            verify_swap_identity(rule, 2, labels, m=3)  # m only fits rule white


def reference_deviation(rule, d, flat, m=None):
    """The per-case outcome sum, one dense rebuild per (k, l): each branch
    register through to_statevector, permuted back with permute_to."""
    if rule == "bell":
        register, pair = two_bell_register(d, flat[:2], flat[2:]), (1, 4)
    else:
        n = len(flat) - 2
        register = cat_bell_register(d, flat[:n], flat[n:])
        pair = (1, n + 2) if rule == "black" else (n + 1, m)
    lhs = to_statevector(register)
    rhs = np.zeros_like(lhs.amps)
    for k, l in itertools.product(range(d), repeat=2):
        _, after = bell_measure(register, pair, outcome=SwapOutcome(k, l))
        scale = float(d) ** (-(after.scale_exponent - register.scale_exponent) / 2)
        rhs = rhs + scale * permute_to(to_statevector(after), lhs.particles).amps
    return float(np.max(np.abs(lhs.amps - rhs)))


def rule_cases(n):
    """(rule, m) for every rule and white-node position at cat size n."""
    return [("bell", None), ("black", None)] + [("white", m) for m in range(2, n + 1)]


def test_verify_block_equals_reference_exhaustive():
    for d, n in ((2, 3), (3, 3), (2, 4)):
        for rule, m in rule_cases(n):
            width = 4 if rule == "bell" else n + 2
            rows = list(itertools.product(range(d), repeat=width))
            deviations = verify_swap_block(rule, d, rows, m=m)
            assert deviations.tolist() == [reference_deviation(rule, d, row, m)
                                           for row in rows]


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=6, max_size=6),
                min_size=1, max_size=3),
       st.integers(2, 4))
def test_verify_block_equals_reference_random_d5_n4(rows, m):
    for rule, position in (("bell", None), ("black", None), ("white", m)):
        block = [row[:4] for row in rows] if rule == "bell" else rows
        assert verify_swap_block(rule, 5, block, m=position).tolist() == [
            reference_deviation(rule, 5, row, position) for row in block]


def test_verify_block_reduces_labels_past_int64():
    for rule, d, row, m in (("bell", 2, [2**70, 1, 0, -2**70], None),
                            ("bell", 3, [2**63 + 1, -1, 0, 1], None),
                            ("black", 3, [2**70, -2**70, 1, 2**63 + 1, -1], None),
                            ("white", 3, [-2**70, 2, 2**70, 0, 2**63 + 1], 3)):
        reduced = [u % d for u in row]
        big, small = verify_swap_block(rule, d, [row, reduced], m=m)
        assert big == small < 1e-12


def test_verify_block_validation():
    with pytest.raises(ValueError):
        verify_swap_block("bell", 2, [])  # no case
    with pytest.raises(ValueError):
        verify_swap_block("bell", 2, [0, 0, 0, 0])  # not 2-D
    with pytest.raises(ValueError):
        verify_swap_block("bell", 2, [[0, 0, 0, 0, 0]])
    with pytest.raises(ValueError):
        verify_swap_block("black", 2, [[0, 0, 0, 0]])  # cat of 2
    with pytest.raises(ValueError):
        verify_swap_block("white", 2, [[0, 0, 0, 0, 0]], m=4)
    with pytest.raises(ValueError):
        verify_swap_identity("black", 2, ((0, 0, 0), (0, 0, 0)))  # not a Bell pair


def test_verify_block_fails_on_a_wrong_particle_order(monkeypatch, capsys):
    # The rewrite names the residual's particles, and one axis permutation
    # per block follows that order. A rewrite that lists them reversed puts
    # each branch's labels on the wrong particles, which the sum sees.
    rewrite = swapcalc.bell_measure_block

    def reversed_particles(*args):
        measured, residual, phase, particles = rewrite(*args)
        return measured, residual, phase, particles[::-1]

    monkeypatch.setattr(swapcalc, "bell_measure_block", reversed_particles)
    d, n = 3, 3
    for rule, m in rule_cases(n):
        width = 4 if rule == "bell" else n + 2
        rows = list(itertools.product(range(d), repeat=width))
        assert verify_swap_block(rule, d, rows, m=m).max() > 1e-3
    assert main(["verify", "--d", str(d), "--n", str(n), "--seed", "1"]) == 1
    assert "CHECKS FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("keep", ["k", "l"])
def test_verify_block_fails_on_a_wrong_rewrite(monkeypatch, keep, capsys):
    # Each rule in turn drops k or l. A sign flip would not do: it only
    # relabels the outcomes, which the outcome sum cannot see (the README
    # table test pins the signs).
    rules = {(True, True): "bell", (False, True): "black", (True, False): "white"}
    d, n = 3, 3
    for key, rule in rules.items():
        sk, sl = swapcalc._RULE_SIGNS[key]
        wrong = (0, sl) if keep == "l" else (sk, 0)
        monkeypatch.setitem(swapcalc._RULE_SIGNS, key, wrong)
        width = 4 if rule == "bell" else n + 2
        rows = list(itertools.product(range(d), repeat=width))
        for position in (range(2, n + 1) if rule == "white" else (None,)):
            assert verify_swap_block(rule, d, rows, m=position).min() > 1e-3
        assert main(["verify", "--d", str(d), "--n", str(n), "--rule", rule,
                     "--seed", "1"]) == 1
        assert "CHECKS FAILED" in capsys.readouterr().out
        monkeypatch.setitem(swapcalc._RULE_SIGNS, key, (sk, sl))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6),
       st.integers(2, 4))
def test_verify_identity_random_d5_n4(flat, m):
    cat, bell = tuple(flat[:4]), tuple(flat[4:])
    assert verify_swap_identity("black", 5, (cat, bell)) < 1e-9
    assert verify_swap_identity("white", 5, (cat, bell), m=m) < 1e-9


def test_born_uniformity():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for _ in range(3):
            cat = tuple(int(x) for x in rng.integers(0, d, 3))
            bell = tuple(int(x) for x in rng.integers(0, d, 2))
            register = cat_bell_register(d, cat, bell)
            before = to_statevector(register)
            for pair in ((1, 5), (4, 2), (4, 3)):
                for k, l in itertools.product(range(d), repeat=2):
                    _, after = bell_measure(register, pair,
                                            outcome=SwapOutcome(k, l))
                    reference = after.fragment_of(pair[0]).to_state()
                    probability, _ = project_onto(before, reference)
                    assert probability == pytest.approx(1 / d**2, abs=1e-9)


@given(st.integers(2, 5), st.tuples(st.integers(0, 15), st.integers(0, 15)),
       st.tuples(st.integers(0, 15), st.integers(0, 15)),
       st.tuples(st.integers(0, 15), st.integers(0, 15)))
def test_label_conservation_bell_rule(d, a_labels, b_labels, outcome):
    register = two_bell_register(d, a_labels, b_labels)
    _, after = bell_measure(register, (1, 4), outcome=SwapOutcome(*outcome))
    by_particles = {f.particles: f.labels for f in after.fragments}
    measured, residual = by_particles[(1, 4)], by_particles[(3, 2)]
    # black and white label sums are separately conserved
    assert (measured[0] + residual[0]) % d == (a_labels[0] + b_labels[0]) % d
    assert (measured[1] + residual[1]) % d == (a_labels[1] + b_labels[1]) % d


@given(st.integers(2, 5), st.lists(st.integers(0, 15), min_size=3, max_size=5),
       st.tuples(st.integers(0, 15), st.integers(0, 15)),
       st.tuples(st.integers(0, 15), st.integers(0, 15)))
def test_black_node_conservation_black_rule(d, cat, bell, outcome):
    register = cat_bell_register(d, tuple(cat), bell)
    n = len(cat)
    _, after = bell_measure(register, (1, n + 2), outcome=SwapOutcome(*outcome))
    measured = after.fragment_of(1).labels
    residual = after.fragment_of(n + 1).labels
    assert (measured[0] + residual[0]) % d == (cat[0] + bell[0]) % d


def test_bell_measure_draw_deterministic_and_uniform():
    def draw(d, rng):
        outcome, _ = bell_measure(two_bell_register(d, (0, 0), (0, 0)), (1, 4),
                                  rng=rng)
        return outcome

    first = [draw(3, seed) for seed in range(10)]
    second = [draw(3, seed) for seed in range(10)]
    assert first == second
    # the draw is one integers(0, d, size=2) call, so same-seed reports keep
    # their outcome stream
    for d in (2, 3, 5):
        for seed in range(10):
            expected = np.random.default_rng(seed).integers(0, d, size=2)
            assert draw(d, seed) == tuple(int(x) for x in expected)

    rng = np.random.default_rng(123)
    counts = np.zeros((2, 2), dtype=int)
    draws = 40000
    for _ in range(draws):
        k, l = draw(2, rng)
        counts[k, l] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)

    rng = np.random.default_rng(7)
    seen = {draw(3, rng) for _ in range(10000)}
    assert len(seen) == 9


def test_cross_engine_agreement_random_sequences():
    from cross_engine import run_cross_engine_sequence

    rng = np.random.default_rng(2024)
    total_steps = 0
    for _ in range(40):
        d = int(rng.integers(2, 4))
        total_steps += run_cross_engine_sequence(d, rng)
    assert total_steps > 60


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7), st.sampled_from(sorted(swapcalc._RULE_SIGNS)),
       st.integers(3, 6), st.data())
def test_block_rewrite_equals_bell_measure(d, key, n, data):
    # the array twin against the scalar reference, under forced outcomes:
    # every _RULE_SIGNS key, the Bell-Bell case included, at random labels,
    # with each row under its own outcome and under a broadcast outcome table
    bell_p, bell_q = key
    size_p, size_q = 2 if bell_p else n, 2 if bell_q else n
    parts_p = tuple(range(1, size_p + 1))
    parts_q = tuple(range(size_p + 1, size_p + size_q + 1))
    pair = (parts_p[0], parts_q[data.draw(st.integers(1, size_q - 1))])
    labels = st.integers(-50, 50)
    rows = data.draw(st.integers(1, 3))
    a = data.draw(st.lists(st.lists(labels, min_size=size_p, max_size=size_p),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(labels, min_size=size_q, max_size=size_q),
                           min_size=rows, max_size=rows))
    own = data.draw(st.lists(st.tuples(labels, labels), min_size=rows, max_size=rows))
    outcomes = data.draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=4))

    measured, residual, phase, particles = bell_measure_block(
        d, (parts_p, parts_q), (a, b), pair, own)
    assert measured.shape == (rows, 2)
    assert residual.shape == (rows, len(particles))
    assert phase.shape == (rows,)
    table = bell_measure_block(d, (parts_p, parts_q),
                               (np.array(a)[:, None], np.array(b)[:, None]),
                               pair, outcomes)
    assert table[0].shape == (rows, len(outcomes), 2)
    assert table[1].shape == (rows, len(outcomes), len(particles))
    assert table[2].shape == (len(outcomes),)
    assert table[3] == particles
    for row in range(rows):
        register = Register(d, (CatFragment(d, parts_p, a[row]),
                                CatFragment(d, parts_q, b[row])))
        cases = [(own[row], measured[row], residual[row], phase[row])] + [
            (outcome, table[0][row, i], table[1][row, i], table[2][i])
            for i, outcome in enumerate(outcomes)]
        for outcome, got_measured, got_residual, got_phase in cases:
            _, after = bell_measure(register, pair, outcome=outcome)
            expected_measured, expected_residual = after.fragments
            assert tuple(got_measured.tolist()) == expected_measured.labels
            assert tuple(got_residual.tolist()) == expected_residual.labels
            assert particles == expected_residual.particles
            assert int(got_phase) == after.phase_power


def test_block_rewrite_rejects_what_bell_measure_rejects():
    cat, bell = (1, 2, 3), (4, 5)
    labels = ([0, 0, 0], [0, 0])
    for fragments, pair in (((cat, bell), (2, 5)), ((cat, bell), (1, 4)),
                            ((cat, (3, 4, 5)), (1, 4)), ((cat, (6, 7, 8)), (1, 7))):
        with pytest.raises(UnsupportedConfigurationError):
            bell_measure_block(2, fragments, labels, pair, [(0, 0)])
