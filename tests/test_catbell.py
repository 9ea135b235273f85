import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditswap.catbell import (bell_state, cat_amplitudes, cat_state, cat_support,
                               cat_via_circuit, expand_basis_in_bell,
                               expand_basis_in_cat, reduce_labels)
from quditswap.core import pack_index, zeta
from quditswap.protocol import ProtocolConfig, run_round
from quditswap.statevec import basis_state, inner_product, permute_to
from quditswap.swapcalc import CatFragment, Register, bell_measure


def closed_form_digits(d, labels):
    """The closed form's support digits (j, j+u2, ..., j+un), one tuple per j."""
    return [(j,) + tuple((j + int(u)) % d for u in labels[1:]) for j in range(d)]


def closed_form_loop(d, labels):
    """The cat closed form as a d-step loop over j, one amplitude per step."""
    labels = tuple(int(u) % d for u in labels)
    amps = np.zeros(d ** len(labels), dtype=complex)
    scale = 1.0 / math.sqrt(d)
    for j, digits in enumerate(closed_form_digits(d, labels)):
        amps[pack_index(d, digits)] = scale * zeta(d, j * labels[0])
    return amps


def test_cat_amplitudes_match_cat_state_bit_for_bit():
    rng, shuffle = np.random.default_rng(11), np.random.default_rng(12)
    for d in range(2, 8):
        for n in range(2, 6):
            # all tuples where they are few, else a sample; labels outside 0..d-1 too
            tuples = (list(itertools.product(range(d), repeat=n)) if d**n <= 256
                      else rng.integers(-2 * d, 3 * d, (40, n)).tolist())
            block = cat_amplitudes(d, tuples)
            assert block.shape == (len(tuples), d**n)
            for labels, amps in zip(tuples, block):
                expected = closed_form_loop(d, labels).tobytes()
                assert amps.tobytes() == expected
                assert cat_state(d, range(n), labels).amps.tobytes() == expected
            # the dense step's child check compares supports index for index,
            # so it relies on this order: ascending under default places,
            # and one entry per j under the permuted places verify passes
            index, _ = cat_support(d, tuples)
            assert np.all(np.diff(index, axis=-1) > 0)
            places = d ** shuffle.permutation(n)
            index, _ = cat_support(d, tuples, places)
            for labels, row in zip(tuples, index):
                assert row.tolist() == [int(np.dot(digits, places))
                                        for digits in closed_form_digits(d, labels)]


def test_cat_amplitudes_shapes_and_validation():
    labels = np.arange(24).reshape(2, 4, 3) % 3
    block = cat_amplitudes(3, labels)
    assert block.shape == (2, 4, 27)
    assert block[1, 2].tobytes() == cat_state(3, (0, 1, 2), labels[1, 2]).amps.tobytes()
    assert cat_amplitudes(2, (0, 1)).shape == (4,)
    with pytest.raises(ValueError):
        cat_amplitudes(2, [[0]])
    with pytest.raises(ValueError):
        cat_amplitudes(17, [[0, 0]])


def test_labels_past_int64_reduce_exactly():
    # numpy's own inference would make [2**63 + 1, -1] a float64 array and
    # round the first label, so the reduction mod d must stay in integers
    for d, labels in ((2, [2**70, 0]), (3, [-2**70, 2**70, 1]),
                      (3, [2**63 + 1, -1, 0])):
        expected = cat_amplitudes(d, [[u % d for u in labels]]).tobytes()
        assert cat_amplitudes(d, [labels]).tobytes() == expected
        assert cat_state(d, range(len(labels)), labels).amps.tobytes() == expected


def test_non_integer_labels_are_refused():
    # reduce_labels is the one label reducer, so no entry point truncates a
    # label or an outcome the way int() would (1.9 -> 1, 0.7 -> 0)
    register = Register(3, (CatFragment(3, (1, 2, 3), (0, 0, 0)),
                            CatFragment(3, (4, 5), (0, 0))))
    config = ProtocolConfig(3, 3, (0,) * 3, ((0, 0),) * 3)
    for bad in (1.9, 0.7, 2 + 0j, True, np.bool_(False), np.float64(1.0), "1"):
        calls = (lambda: reduce_labels(3, [1, bad]),
                 lambda: ProtocolConfig(3, 3, (bad, 0, 0), ((0, 0),) * 3),
                 lambda: ProtocolConfig(3, 3, (0,) * 3, ((0, bad),) + ((0, 0),) * 2),
                 lambda: CatFragment(3, (0, 1), (bad, 0)),
                 lambda: bell_measure(register, (1, 5), outcome=(bad, 1)),
                 lambda: run_round(config, forced_outcomes=[(bad, 1)] + [(0, 0)] * 2))
        for call in calls:
            with pytest.raises(ValueError, match="labels must be integers"):
                call()
    for array in (np.array([1.9, 2.5]), np.array([True, False]), np.array(["1", "2"])):
        with pytest.raises(ValueError, match="labels must be integers"):
            reduce_labels(3, array)
    assert reduce_labels(3, np.array([2**63 + 1], dtype=np.uint64)).tolist() == [
        (2**63 + 1) % 3]
    assert reduce_labels(3, [np.int64(-1), 2**70]).tolist() == [2, 2**70 % 3]
    assert ProtocolConfig(3, 3, (4, -1, 2**70), ((3, 5),) * 3).cat_labels == (
        1, 2, 2**70 % 3)


def test_bell_state_qubit_case():
    assert_allclose(bell_state(2, (0, 1), (0, 0)).amps,
                    np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_bell_state_qutrit_example():
    z = np.exp(2j * np.pi / 3)
    state = bell_state(3, (0, 1), (1, 2))
    expected = np.zeros(9, dtype=complex)
    expected[0 * 3 + 2] = 1
    expected[1 * 3 + 0] = z
    expected[2 * 3 + 1] = z**2
    assert_allclose(state.amps, expected / np.sqrt(3), atol=1e-15)


def test_cat_state_examples():
    ghz = cat_state(2, (0, 1, 2), (0, 0, 0))
    assert_allclose(ghz.amps[[0, 7]], 1 / np.sqrt(2))
    assert np.count_nonzero(np.abs(ghz.amps) > 1e-12) == 2

    z = np.exp(2j * np.pi / 3)
    state = cat_state(3, (0, 1, 2), (1, 0, 2))
    expected = np.zeros(27, dtype=complex)
    expected[0 * 9 + 0 * 3 + 2] = 1
    expected[1 * 9 + 1 * 3 + 0] = z
    expected[2 * 9 + 2 * 3 + 1] = z**2
    assert_allclose(state.amps, expected / np.sqrt(3), atol=1e-15)


def test_cat_state_validation():
    with pytest.raises(ValueError):
        cat_state(2, (0,), (0,))
    with pytest.raises(ValueError):
        cat_state(2, (0, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        bell_state(2, (0, 1, 2), (0, 0, 0))
    with pytest.raises(ValueError, match="^a cat state needs at least 2 particles$"):
        cat_via_circuit(2, (0,), (0,))
    with pytest.raises(ValueError, match="^need at least 2 digits$"):
        expand_basis_in_cat(2, (1,))


def gram_is_identity(states, tol=1e-9):
    count = len(states)
    gram = np.empty((count, count), dtype=complex)
    for a in range(count):
        for b in range(count):
            gram[a, b] = inner_product(states[a], states[b])
    return np.max(np.abs(gram - np.eye(count))) < tol


def test_bell_gram_identity_d3():
    states = [bell_state(3, (0, 1), labels)
              for labels in itertools.product(range(3), repeat=2)]
    assert gram_is_identity(states)


def test_cat_gram_identity():
    for d, n in ((3, 3), (2, 4)):
        states = [cat_state(d, tuple(range(n)), labels)
                  for labels in itertools.product(range(d), repeat=n)]
        assert gram_is_identity(states)


def test_expand_basis_in_bell_structure():
    terms = expand_basis_in_bell(2, (0, 1))
    assert [labels for _, labels in terms] == [(0, 1), (1, 1)]
    assert_allclose([c for c, _ in terms], 1 / np.sqrt(2), atol=1e-15)

    diffs = {labels[1] for _, labels in expand_basis_in_bell(3, (2, 2))}
    assert diffs == {0}


def test_expand_basis_in_bell_reconstructs():
    for d in (2, 3, 4):
        for j, k in itertools.product(range(d), repeat=2):
            total = np.zeros(d * d, dtype=complex)
            for coefficient, labels in expand_basis_in_bell(d, (j, k)):
                total += coefficient * bell_state(d, (0, 1), labels).amps
            assert_allclose(total, basis_state(d, (0, 1), (j, k)).amps, atol=1e-12)


def test_expand_basis_in_cat_structure():
    terms = expand_basis_in_cat(2, (0, 0, 0))
    assert [labels for _, labels in terms] == [(0, 0, 0), (1, 0, 0)]
    offsets = {labels[1:] for _, labels in expand_basis_in_cat(3, (1, 1, 1))}
    assert offsets == {(0, 0)}


def test_expand_basis_in_cat_reconstructs():
    d, n = 3, 3
    for digits in itertools.product(range(d), repeat=n):
        total = np.zeros(d**n, dtype=complex)
        for coefficient, labels in expand_basis_in_cat(d, digits):
            total += coefficient * cat_state(d, tuple(range(n)), labels).amps
        assert_allclose(total, basis_state(d, tuple(range(n)), digits).amps,
                        atol=1e-12)


def test_circuit_matches_closed_form_exhaustive():
    for d, n in ((2, 2), (2, 3), (2, 4), (3, 3)):
        for digits in itertools.product(range(d), repeat=n):
            circuit = cat_via_circuit(d, tuple(range(n)), digits)
            closed = cat_state(d, tuple(range(n)), digits)
            assert np.max(np.abs(circuit.amps - closed.amps)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_circuit_matches_closed_form_d5(digits):
    circuit = cat_via_circuit(5, (0, 1, 2, 3), digits)
    closed = cat_state(5, (0, 1, 2, 3), digits)
    assert np.max(np.abs(circuit.amps - closed.amps)) < 1e-12


def test_white_node_symmetry():
    # permuting white particles together with their labels is a no-op
    for d, n in ((2, 3), (3, 3), (2, 4)):
        for labels in itertools.product(range(d), repeat=n):
            base = cat_state(d, tuple(range(n)), labels)
            for perm in itertools.permutations(range(1, n)):
                particles = (0,) + perm
                permuted_labels = (labels[0],) + tuple(labels[p] for p in perm)
                state = cat_state(d, particles, permuted_labels)
                assert_allclose(permute_to(state, base.particles).amps,
                                base.amps, atol=1e-12)


def test_black_node_is_not_interchangeable():
    # swapping the black node with a white node changes the state for some labels
    base = cat_state(3, (0, 1, 2), (1, 2, 0))
    swapped = cat_state(3, (1, 0, 2), (2, 1, 0))
    overlap = inner_product(base, permute_to(swapped, base.particles))
    assert abs(abs(overlap) - 1) > 1e-6
