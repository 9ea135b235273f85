"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one summary line (visible with -s or in captured output)
and fails loudly if its criterion is not met.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from quditswap.catbell import (bell_state, cat_state, cat_via_circuit,
                               expand_basis_in_bell, expand_basis_in_cat)
from quditswap.cli import main as cli_main
from quditswap.protocol import (ProtocolConfig, collusion_posterior,
                                enumerate_oracle_branches, make_party_views,
                                recover_first_dit_pooled, recover_second_dit,
                                run_round)
from quditswap.statevec import basis_state, project_onto
from quditswap.swapcalc import (CatFragment, Register, SwapOutcome,
                                bell_measure, to_statevector,
                                verify_swap_identity)

# exact chi-square(dof=8) upper 0.001 quantile, frozen from an independent
# inverse-CDF computation
CHI2_CRIT_DOF8_P999 = 26.12448155837614


def report(number, name, ok, detail):
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def gram_deviation(states):
    matrix = np.array([state.amps for state in states])
    gram = matrix.conj() @ matrix.T
    return float(np.max(np.abs(gram - np.eye(len(states)))))


def test_acceptance_1_basis_validity():
    worst_gram = 0.0
    for d in (2, 3, 4):
        bells = [bell_state(d, (0, 1), labels)
                 for labels in itertools.product(range(d), repeat=2)]
        worst_gram = max(worst_gram, gram_deviation(bells))
    for d, n in ((3, 3), (2, 4)):
        cats = [cat_state(d, tuple(range(n)), labels)
                for labels in itertools.product(range(d), repeat=n)]
        worst_gram = max(worst_gram, gram_deviation(cats))

    worst_expand = 0.0
    for d in (2, 3, 4):
        for digits in itertools.product(range(d), repeat=2):
            total = np.zeros(d * d, dtype=complex)
            for coefficient, labels in expand_basis_in_bell(d, digits):
                total += coefficient * bell_state(d, (0, 1), labels).amps
            target = basis_state(d, (0, 1), digits).amps
            worst_expand = max(worst_expand, float(np.max(np.abs(total - target))))
    for d, n in ((3, 3), (2, 4)):
        for digits in itertools.product(range(d), repeat=n):
            total = np.zeros(d**n, dtype=complex)
            for coefficient, labels in expand_basis_in_cat(d, digits):
                total += coefficient * cat_state(d, tuple(range(n)), labels).amps
            target = basis_state(d, tuple(range(n)), digits).amps
            worst_expand = max(worst_expand, float(np.max(np.abs(total - target))))

    ok = worst_gram < 1e-9 and worst_expand < 1e-12
    report(1, "basis validity", ok,
           f"gram deviation {worst_gram:.2e} < 1e-9, "
           f"expansion deviation {worst_expand:.2e} < 1e-12")


def test_acceptance_2_circuit_equivalence():
    worst = 0.0
    cases = 0
    for d, n in ((2, 2), (2, 3), (2, 4), (3, 3)):
        for digits in itertools.product(range(d), repeat=n):
            circuit = cat_via_circuit(d, tuple(range(n)), digits)
            closed = cat_state(d, tuple(range(n)), digits)
            worst = max(worst, float(np.max(np.abs(circuit.amps - closed.amps))))
            cases += 1
    rng = np.random.default_rng(602)
    for _ in range(625):
        digits = tuple(int(x) for x in rng.integers(0, 5, 4))
        circuit = cat_via_circuit(5, (0, 1, 2, 3), digits)
        closed = cat_state(5, (0, 1, 2, 3), digits)
        worst = max(worst, float(np.max(np.abs(circuit.amps - closed.amps))))
        cases += 1
    report(2, "circuit equivalence", worst < 1e-12,
           f"{cases} cases, max amplitude deviation {worst:.2e} < 1e-12")


def test_acceptance_3_swapping_identities():
    worst = 0.0
    cases = 0
    for d in (2, 3):
        for flat in itertools.product(range(d), repeat=4):
            worst = max(worst, verify_swap_identity("bell", d,
                                                    (flat[:2], flat[2:])))
            cases += 1
    for d in (2, 3):
        for flat in itertools.product(range(d), repeat=5):
            cat, bell = flat[:3], flat[3:]
            worst = max(worst, verify_swap_identity("black", d, (cat, bell)))
            cases += 1
            for m in (2, 3):
                worst = max(worst, verify_swap_identity("white", d,
                                                        (cat, bell), m=m))
                cases += 1
    rng = np.random.default_rng(603)
    for _ in range(100):
        cat = tuple(int(x) for x in rng.integers(0, 5, 4))
        bell = tuple(int(x) for x in rng.integers(0, 5, 2))
        worst = max(worst, verify_swap_identity("black", 5, (cat, bell)))
        cases += 1
        for m in (2, 3, 4):
            worst = max(worst, verify_swap_identity("white", 5, (cat, bell), m=m))
            cases += 1
    report(3, "swapping identities", worst < 1e-9,
           f"{cases} cases, max amplitude deviation {worst:.2e} < 1e-9")


def test_acceptance_4_born_uniformity():
    rng = np.random.default_rng(604)
    worst = 0.0
    outcomes_checked = 0
    for d in (2, 3):
        tuples = []
        if d == 2:
            tuples = [flat for flat in itertools.product(range(2), repeat=5)]
        else:
            tuples = [tuple(int(x) for x in rng.integers(0, 3, 5))
                      for _ in range(15)]
        for flat in tuples:
            cat, bell = flat[:3], flat[3:]
            register = Register(d, (CatFragment(d, (1, 2, 3), cat),
                                    CatFragment(d, (4, 5), bell)))
            before = to_statevector(register)
            for pair in ((1, 5), (4, 2), (4, 3)):
                for k, l in itertools.product(range(d), repeat=2):
                    _, after = bell_measure(register, pair,
                                            outcome=SwapOutcome(k, l))
                    reference = after.fragment_of(pair[0]).to_state()
                    probability, _ = project_onto(before, reference)
                    worst = max(worst, abs(probability - 1 / d**2))
                    outcomes_checked += 1
        # the two-Bell rule at the same dimensions
        for flat in itertools.product(range(d), repeat=4):
            register = Register(d, (CatFragment(d, (1, 2), flat[:2]),
                                    CatFragment(d, (3, 4), flat[2:])))
            before = to_statevector(register)
            for k, l in itertools.product(range(d), repeat=2):
                _, after = bell_measure(register, (1, 4),
                                        outcome=SwapOutcome(k, l))
                reference = after.fragment_of(1).to_state()
                probability, _ = project_onto(before, reference)
                worst = max(worst, abs(probability - 1 / d**2))
                outcomes_checked += 1
    report(4, "born uniformity", worst < 1e-9,
           f"{outcomes_checked} outcome probabilities within "
           f"{worst:.2e} of 1/d^2 (tol 1e-9)")


def test_acceptance_5_cross_engine_agreement():
    from cross_engine import run_cross_engine_sequence

    rng = np.random.default_rng(605)
    sequences = 0
    steps = 0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        steps += run_cross_engine_sequence(d, rng)
        sequences += 1
    report(5, "cross-engine agreement", sequences == 200,
           f"{sequences} sequences, {steps} measurements, fidelity and "
           f"phase exact within 1e-9")


def _consistent(transcript):
    config = transcript.config
    d, n = config.d, config.n
    k_total = sum(k for k, _ in transcript.outcomes)
    if transcript.announced[0] != (config.bell_labels[0][0] + k_total) % d:
        return False
    if any(transcript.announced[i - 1]
           != (config.bell_labels[i - 1][1] + transcript.outcomes[i - 1][1]) % d
           for i in range(2, n + 1)):
        return False
    views = make_party_views(transcript)
    if any(recover_second_dit(view) != transcript.key[1] for view in views):
        return False
    return recover_first_dit_pooled(views, transcript.announced) == transcript.key[0]


def test_acceptance_6_protocol_correctness():
    rng = np.random.default_rng(606)
    rounds = 0
    failures = 0
    for d, n in ((2, 3), (2, 4), (3, 4), (5, 4), (7, 5)):
        for _ in range(1000):
            cat = tuple(int(x) for x in rng.integers(0, d, n))
            bells = tuple((int(v), int(vp)) for v, vp in rng.integers(0, d, (n, 2)))
            transcript = run_round(ProtocolConfig(d, n, cat, bells), rng=rng)
            failures += not _consistent(transcript)
            rounds += 1
    for d, n in ((2, 3), (3, 3)):
        for _ in range(200):
            cat = tuple(int(x) for x in rng.integers(0, d, n))
            bells = tuple((int(v), int(vp)) for v, vp in rng.integers(0, d, (n, 2)))
            transcript = run_round(ProtocolConfig(d, n, cat, bells),
                                   engine="statevector", rng=rng)
            failures += not _consistent(transcript)
            rounds += 1
    report(6, "protocol correctness", failures == 0,
           f"{rounds - failures}/{rounds} rounds recovered both key dits "
           f"and satisfied the announcement identities")


def test_acceptance_7_secrecy():
    rng = np.random.default_rng(607)
    all_uniform = True
    subsets_checked = 0
    for d, n in ((2, 3), (3, 4)):
        for _ in range(5):
            cat = tuple(int(x) for x in rng.integers(0, d, n))
            bells = tuple((int(v), int(vp)) for v, vp in rng.integers(0, d, (n, 2)))
            transcript = run_round(ProtocolConfig(d, n, cat, bells), rng=rng)
            parties = range(2, n + 1)
            for size in range(0, n - 1):
                for subset in itertools.combinations(parties, size):
                    posterior = collusion_posterior(d, transcript, subset)
                    all_uniform &= posterior == (Fraction(1, d),) * d
                    subsets_checked += 1

    branches = enumerate_oracle_branches(
        ProtocolConfig(2, 3, (0, 0, 0), ((0, 0),) * 3))
    balanced = True
    for known in (set(), {2}, {3}):
        classes = {}
        for branch in branches:
            view = (branch.announced,
                    tuple(branch.outcomes[i - 1] for i in sorted(known)))
            classes.setdefault(view, []).append(branch.key[0])
        for firsts in classes.values():
            balanced &= firsts.count(0) == firsts.count(1) == len(firsts) // 2

    report(7, "secrecy", all_uniform and balanced,
           f"{subsets_checked} strict-subset posteriors exactly uniform; "
           f"{len(branches)} dense branches balanced per view class")


def test_acceptance_8_key_uniformity():
    rng = np.random.default_rng(608)
    d, n, rounds = 3, 4, 10000
    counts = np.zeros((d, d), dtype=int)
    for _ in range(rounds):
        cat = tuple(int(x) for x in rng.integers(0, d, n))
        bells = tuple((int(v), int(vp)) for v, vp in rng.integers(0, d, (n, 2)))
        transcript = run_round(ProtocolConfig(d, n, cat, bells), rng=rng)
        counts[transcript.key[0], transcript.key[1]] += 1
    expected = rounds / (d * d)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    ok = statistic < CHI2_CRIT_DOF8_P999
    report(8, "key uniformity", ok,
           f"chi-square {statistic:.2f} < {CHI2_CRIT_DOF8_P999:.2f} "
           f"(dof 8, alpha 0.001, {rounds} rounds)")


def run_cli(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def test_acceptance_9_cli_reproducibility(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["protocol", "--d", "3", "--n", "3", "--rounds", "30",
            "--engine", "statevector", "--labels", "random", "--seed", "77"]
    identical = (run_cli(base + ["--json", str(a)]) == 0
                 and run_cli(base + ["--json", str(b)]) == 0
                 and a.read_bytes() == b.read_bytes())
    parsed = json.loads(a.read_text())
    identical &= parsed["success_rate"] == 1.0

    codes = (
        run_cli(["verify", "--d", "2", "--n", "3", "--rule", "all",
                 "--exhaustive", "--seed", "1"]),
        run_cli(["verify", "--d", "2", "--rule", "bell", "--tol", "1e-30",
                 "--seed", "1"]),
        run_cli(["verify", "--d", "9", "--n", "6", "--exhaustive"]),
        run_cli(["protocol", "--d", "16", "--n", "5", "--rounds", "1",
                 "--engine", "statevector"]),
        run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                 "--oracle", "--seed", "2"]),
        run_cli(["collude", "--d", "2", "--n", "3", "--missing", "1"]),
    )
    capsys.readouterr()
    expected = (0, 1, 2, 2, 0, 2)
    report(9, "cli reproducibility", identical and codes == expected,
           f"byte-identical JSON {identical}; exit codes {codes} "
           f"(expected {expected})")
