import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditswap.catbell import bell_state, cat_amplitudes, cat_state, cat_support
from quditswap import statevec
from quditswap.statevec import (StateVector, apply_controlled_shift,
                                apply_hadamard, basis_state,
                                cat_overlaps, hadamard_matrix, inner_product,
                                permute_to, project_onto, tensor)
from quditswap.swapcalc import verify_swap_block


def random_state(d, particles, rng):
    amps = rng.normal(size=d ** len(particles)) + 1j * rng.normal(size=d ** len(particles))
    return StateVector(d, particles, amps / np.linalg.norm(amps))


def test_basis_state_examples():
    assert_allclose(basis_state(2, (0, 1), (1, 0)).amps, [0, 0, 1, 0])
    assert_allclose(basis_state(3, (0,), (2,)).amps, [0, 0, 1])
    assert basis_state(4, (7, 8, 9), (1, 2, 3)).norm() == pytest.approx(1)


def test_basis_state_length_mismatch():
    with pytest.raises(ValueError):
        basis_state(2, (0, 1), (1,))


def test_duplicate_particles_rejected():
    with pytest.raises(ValueError):
        basis_state(2, (0, 0), (1, 1))
    with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got shape \(3,\)$"):
        StateVector(2, (0, 1), np.zeros(3))


def test_hadamard_qubit():
    state = apply_hadamard(basis_state(2, (0,), (0,)), 0)
    assert_allclose(state.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_hadamard_qutrit_column():
    z = np.exp(2j * np.pi / 3)
    state = apply_hadamard(basis_state(3, (0,), (1,)), 0)
    assert_allclose(state.amps, np.array([1, z, z**2]) / np.sqrt(3), atol=1e-15)


def test_hadamard_matrix_unitary_d4():
    h = hadamard_matrix(4)
    assert_allclose(h @ h.conj().T, np.eye(4), atol=1e-12)


def test_hadamard_squared_is_negation():
    # H^2 sends |j> to |-j mod d>, checked per basis state for d <= 8
    for d in range(2, 9):
        for j in range(d):
            state = apply_hadamard(apply_hadamard(basis_state(d, (0,), (j,)), 0), 0)
            expected = basis_state(d, (0,), ((-j) % d,))
            assert abs(inner_product(expected, state) - 1) < 1e-12


def test_controlled_shift_examples():
    state = apply_controlled_shift(basis_state(3, (0, 1), (2, 2)), 0, 1)
    assert_allclose(state.amps, basis_state(3, (0, 1), (2, 1)).amps)

    plus = apply_hadamard(basis_state(2, (0, 1), (0, 0)), 0)
    bell = apply_controlled_shift(plus, 0, 1)
    assert_allclose(bell.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_controlled_shift_zero_control_is_identity():
    for d in (2, 3, 5):
        state = basis_state(d, (0, 1), (0, d - 1))
        out = apply_controlled_shift(state, 0, 1)
        assert_allclose(out.amps, state.amps)


def test_controlled_shift_axis_order():
    # control axis after target axis exercises the axis-index adjustment
    state = apply_controlled_shift(basis_state(3, (5, 6), (1, 2)), 6, 5)
    assert_allclose(state.amps, basis_state(3, (5, 6), ((1 + 2) % 3, 2)).amps)


def test_controlled_shift_same_particle_rejected():
    with pytest.raises(ValueError):
        apply_controlled_shift(basis_state(2, (0, 1), (0, 0)), 0, 0)


def test_gates_preserve_norm():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        state = random_state(d, (0, 1, 2), rng)
        for out in (apply_hadamard(state, 1), apply_controlled_shift(state, 0, 2)):
            assert out.norm() == pytest.approx(1, abs=1e-12)


def test_tensor_examples():
    state = tensor(basis_state(2, (0,), (0,)), basis_state(2, (1,), (1,)))
    assert_allclose(state.amps, basis_state(2, (0, 1), (0, 1)).amps)

    pair = tensor(bell_state(2, (1, 2), (0, 0)), bell_state(2, (3, 4), (0, 0)))
    hot = np.flatnonzero(np.abs(pair.amps) > 1e-12)
    assert list(hot) == [0, 3, 12, 15]
    assert_allclose(pair.amps[hot], 0.5)
    assert pair.norm() == pytest.approx(1)


def test_tensor_rejects_overlap():
    with pytest.raises(ValueError):
        tensor(basis_state(2, (0,), (0,)), basis_state(2, (0,), (1,)))
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        tensor(basis_state(2, (0,), (0,)), basis_state(3, (1,), (1,)))


def test_tensor_checks_cap_before_allocating(monkeypatch):
    a = basis_state(2, (0, 1), (0, 0))
    b = basis_state(2, (2, 3), (1, 1))
    monkeypatch.setattr(statevec, "MAX_AMPLITUDES", 8)

    def no_kron(*args):
        raise AssertionError("kron_rows ran before the cap check")

    monkeypatch.setattr(statevec, "kron_rows", no_kron)
    with pytest.raises(ValueError, match="cap"):
        tensor(a, b)


def test_tensor_matches_np_kron_bit_for_bit():
    rng = np.random.default_rng(5)
    for d in range(2, 6):
        # plain products, then the dense round's cat (x) Bell and Bell (x) cat
        shapes = [(1, 1), (1, 2), (2, 1), (3, 2), (2, 3)]
        shapes += [(n, 2) for n in range(2, 5)] + [(2, n) for n in range(2, 5)]
        for size_a, size_b in shapes:
            a = random_state(d, range(size_a), rng)
            b = random_state(d, range(size_a, size_a + size_b), rng)
            assert tensor(a, b).amps.tobytes() == np.kron(a.amps, b.amps).tobytes()


def test_state_builders_check_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(statevec, "MAX_AMPLITUDES", 8)

    def no_zeros(*args, **kwargs):
        raise AssertionError("np.zeros ran before the cap check")

    monkeypatch.setattr(statevec.np, "zeros", no_zeros)
    with pytest.raises(ValueError, match="cap"):
        basis_state(2, (0, 1, 2, 3), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="cap"):
        cat_state(2, (0, 1, 2, 3), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="cap"):
        cat_amplitudes(2, [(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="cap"):
        verify_swap_block("black", 2, [(0, 0, 0, 0, 0)])


def test_permute_round_trip():
    state = random_state(3, (4, 5, 6), np.random.default_rng(3))
    back = permute_to(permute_to(state, (6, 4, 5)), (4, 5, 6))
    assert_allclose(back.amps, state.amps)
    assert abs(inner_product(state, permute_to(state, (5, 6, 4))) - 1) < 1e-12


def test_permute_and_inner_product_refuse_other_particles():
    state = basis_state(2, (0, 1), (0, 0))
    with pytest.raises(ValueError, match=r"^\(0, 2\) is not a permutation of \(0, 1\)$"):
        permute_to(state, (0, 2))
    with pytest.raises(ValueError, match=r"^particle 5 not in state \(0, 1\)$"):
        apply_hadamard(state, 5)
    with pytest.raises(ValueError, match="^states are over different particle sets$"):
        inner_product(state, basis_state(2, (0, 2), (0, 0)))


def test_project_self_and_orthogonal():
    bell = bell_state(2, (1, 2), (0, 0))
    probability, post = project_onto(bell, bell)
    assert probability == pytest.approx(1)
    assert post.particles == ()
    probability, post = project_onto(bell, bell_state(2, (1, 2), (1, 0)))
    assert probability < 1e-12 and post is None


def test_project_bell_pair_outcomes():
    # projecting (1,4) of a Bell product leaves (3,2) in the sign-flipped state
    pair = tensor(bell_state(2, (1, 2), (0, 0)), bell_state(2, (3, 4), (0, 0)))
    for k, l in itertools.product(range(2), repeat=2):
        probability, post = project_onto(pair, bell_state(2, (1, 4), (k, l)))
        assert probability == pytest.approx(0.25, abs=1e-12)
        expected = bell_state(2, (3, 2), ((-k) % 2, (-l) % 2))
        assert abs(abs(inner_product(expected, post)) - 1) < 1e-9


def test_project_probability_ignores_listing_order():
    rng = np.random.default_rng(11)
    state = random_state(3, (0, 1, 2, 3), rng)
    reference = random_state(3, (1, 3), rng)
    base, _ = project_onto(state, reference)
    for order in itertools.permutations((0, 1, 2, 3)):
        probability, _ = project_onto(permute_to(state, order), reference)
        assert probability == pytest.approx(base, abs=1e-12)


def test_project_requires_subset_and_unit_reference():
    state = basis_state(2, (0, 1), (0, 0))
    with pytest.raises(ValueError):
        project_onto(state, basis_state(2, (5,), (0,)))
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        project_onto(state, basis_state(3, (0,), (0,)))
    bad = StateVector(2, (0,), np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        project_onto(state, bad)


def cat_bell_rows(d, cat, bell, rng, rows):
    """Support rows over cat + bell: a random cat on the particles cat times
    a random Bell pair on bell, with random values of unit norm put on
    those d^2 indices, as (index, values), each (rows, d^2)."""
    cat_index, _ = cat_support(d, rng.integers(0, d, (rows, len(cat))))
    bell_index, _ = cat_support(d, rng.integers(0, d, (rows, 2)))
    index = (cat_index[:, :, None] * d * d + bell_index[:, None, :]).reshape(rows, -1)
    values = rng.normal(size=index.shape) + 1j * rng.normal(size=index.shape)
    return index, values / np.linalg.norm(values, axis=1, keepdims=True)


def scattered(d, qudits, index, values):
    """Support rows of values (..., S), at index broadcast to their shape,
    scattered into dense rows (..., d**qudits)."""
    amps = np.zeros(values.shape[:-1] + (d ** qudits,), dtype=complex)
    np.put_along_axis(amps, np.broadcast_to(index, values.shape), values, axis=-1)
    return amps


def test_cat_overlaps_match_projections():
    rng = np.random.default_rng(17)
    # the pair is listed out of state order, the black node not leading
    cat, bell, pair = (3, 7, 1), (5, 8), (8, 7)
    particles = cat + bell
    rest = tuple(p for p in particles if p not in pair)
    for d in range(2, 6):
        index, values = cat_bell_rows(d, cat, bell, rng, 2)
        residuals, overlaps = cat_overlaps(d, particles, index, values, pair, rest)
        assert residuals.shape == (2, d, d) and overlaps.shape == (2, d, d, d)
        assert np.all(np.diff(residuals, axis=2) > 0)
        for row in range(2):
            state = StateVector(d, particles, scattered(d, 5, index[row], values[row]))
            for u1, u2 in itertools.product(range(d), repeat=2):
                probability, post = project_onto(state, cat_state(d, pair, (u1, u2)))
                assert post.particles == rest
                residual = scattered(d, 3, residuals[row, u2], overlaps[row, u1, u2])
                assert abs(probability - np.vdot(residual, residual).real) < 1e-12
                assert np.max(np.abs(post.amps * np.sqrt(probability) - residual)) < 1e-12


def test_cat_overlaps_rejects_bad_subsets():
    index, values = cat_bell_rows(2, (0, 1), (2, 3), np.random.default_rng(3), 1)
    for subset in ((0,), (0, 0), (1, 2, 1), (0, 9)):
        rest = tuple(p for p in range(4) if p not in subset)
        with pytest.raises(ValueError):
            cat_overlaps(2, range(4), index, values, subset, rest)


def test_cat_overlaps_rows_are_single_state_calls():
    rng = np.random.default_rng(23)
    particles, pair = (3, 7, 1, 5), (5, 7)
    for d in range(2, 6):
        index, values = cat_bell_rows(d, (3, 7), (1, 5), rng, 4)
        residuals, overlaps = cat_overlaps(d, particles, index, values, pair, (3, 1))
        assert overlaps.shape == (4, d, d, d)
        for row in range(4):
            single = cat_overlaps(d, particles, index[row:row + 1], values[row:row + 1],
                                  pair, (3, 1))
            assert single[0][0].tobytes() == residuals[row].tobytes()
            assert single[1][0].tobytes() == overlaps[row].tobytes()


def test_cat_overlaps_orders_the_residual_by_rest():
    # rest orders the residual axes: any order of the other particles is the
    # state-order call with its scattered residual axes permuted the same way
    rng = np.random.default_rng(29)
    particles, pair = (3, 7, 1, 5, 8), (5, 7)
    base = (3, 1, 8)
    for d in range(2, 5):
        index, values = cat_bell_rows(d, (3, 7, 1), (5, 8), rng, 3)
        residuals, overlaps = cat_overlaps(d, particles, index, values, pair, base)
        expected = scattered(d, 3, residuals[:, None], overlaps)
        for rest in itertools.permutations(base):
            axes = [base.index(p) for p in rest]
            permuted = expected.reshape((3, d, d) + (d,) * 3).transpose(
                [0, 1, 2] + [3 + a for a in axes]).reshape(expected.shape)
            residuals, overlaps = cat_overlaps(d, particles, index, values, pair, rest)
            assert np.max(np.abs(scattered(d, 3, residuals[:, None], overlaps)
                                 - permuted)) < 1e-12


def test_cat_overlaps_rejects_a_rest_that_is_not_the_other_particles():
    index, values = cat_bell_rows(2, (0, 1), (2, 3), np.random.default_rng(5), 1)
    for rest in ((0,), (3,), (0, 0), (0, 3, 3), (0, 3, 4), (0, 3, 1), (2, 3), ()):
        with pytest.raises(ValueError, match="do not split"):
            cat_overlaps(2, range(4), index, values, (1, 2), rest)
    residuals, overlaps = cat_overlaps(2, range(4), index, values, (1, 2), (3, 0))
    assert residuals.shape == (1, 2, 2) and overlaps.shape == (1, 2, 2, 2)


def test_cat_overlaps_rejects_a_block_of_the_wrong_shape():
    index, values = cat_bell_rows(2, (0, 1), (2, 3), np.random.default_rng(7), 1)
    for rows in ((index[0], values[0]), (index[:, :3], values[:, :3]),
                 (index, values[:, :3]), (index.reshape(1, 2, 2), values.reshape(1, 2, 2))):
        with pytest.raises(ValueError, match="amplitudes"):
            cat_overlaps(2, range(4), *rows, (0, 2), (1, 3))
    # a pair inside the cat puts every entry on one u2
    with pytest.raises(ValueError, match="each u2 must hold d entries"):
        cat_overlaps(2, range(4), index, values, (0, 1), (2, 3))
