import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from quditswap import cli, protocol, statevec
from quditswap.cli import chi_square_critical, main
from quditswap.protocol import (ProtocolConfig, collusion_posterior, run_round,
                                transcript_to_json_dict)


# sha256 of the seed-401 --json reports of the four benchmark commands, of
# one collude --oracle report at d = 3 with two parties missing (the bench
# command has d = 2 and one), of one collude report of 4,000 posterior
# rounds and of one sampled verify report. The protocol
# and collude reports hold integers and one chi-square float computed from
# counts; the verify reports hold float deviations, whose every operation
# verify_swap_block fixes, so they are exact too. A change that moves any
# byte of them is a change of behaviour.
REPORT_DIGESTS = {
    "protocol-symbolic":
        "456440a0ab366d60da15fff63377529a4ba7e507a6edfc1f15ec888ad17bf9c0",
    "protocol-dense":
        "53fe4713586b2a7ee668a44a0d3897a34a44c5723483184e33d4a976b0668d09",
    "collude-oracle":
        "02b72067d2039f42e5b5f88db214bc771cf6f2cb45748bea169cf2aab721202e",
    "collude-oracle-d3":
        "a01538fd354e6d1bfa2d0f367a5cf2b609edef29b90c29630d27b2d990af2b31",
    "collude-rounds":
        "6376d70876ccb8354947e4ceaeb3c3c5b0546d8eb2c90c09f9ab7944d8356fb8",
    "verify-exhaustive":
        "63a52ee1faa68658b2669df6114a5cb8e0b2aa7d9c7bb9584e334090118c499d",
    "verify-sampled-d3":
        "795156506532c2810939efc97149ffe3e04868e407e947dbe06df2827456a8c4",
}


# sha256 of the two protocol reports above re-serialized whole as
# json.dumps(report, indent=2, sort_keys=True) + "\n", the layout from before
# transcripts were written one per line: they pin the reports' content,
# value for value, across that change of layout.
CONTENT_DIGESTS = {
    "protocol-symbolic":
        "e9bf1da54e1b47feaf0db0227f8cbc97aa49c450318714f54ee1ebd7348094cc",
    "protocol-dense":
        "4fc68012c74b0216a4146bf04364295422a555f4c46f6b85f8d0f2cd60ac8b05",
}


# The two protocol reports' REPORT and CONTENT digests when the commands drew
# from np.random.default_rng(seed).integers(0, high, shape) instead of
# cli._draws: with that source put back, the reports must be these, so the
# draw source is all that moved them.
NUMPY_STREAM_DIGESTS = {
    "protocol-symbolic":
        ("f6cb690ba09e33c232759ffdc622fb1185ad4ad800eeba92cf6168421f83a6da",
         "30175b196614c412798de75de40c8a47e78aeb3979e5684f7670abed4c93261f"),
    "protocol-dense":
        ("c491760b4d76ba1f035232cc4226be296e5af8147c1e43b600f7da6a548e386c",
         "90c3f9386e4522379b45dfdf286fb9d7528f5eb1df873dc9779b5ecb4aece5e9"),
}

# sha256 of the (rule, m, rows) blocks, as JSON, that the sampled verify
# report above hands verify_swap_block: the report holds case counts and
# deviations only, which came out the same under three draw sources, so
# this pins which tuples are drawn.
SAMPLED_TUPLES_DIGEST = (
    "a1ecf3a033da53bff945201d1af68507193e4b3b5327dfe8a2fda3405c9bb4ce")

# the two protocol benchmark commands, by their digest names
PROTOCOL_BENCH_ARGV = {
    "protocol-symbolic": ["protocol", "--d", "7", "--n", "5", "--rounds", "4000",
                          "--engine", "symbolic", "--labels", "random", "--seed", "401",
                          "--json", "-"],
    "protocol-dense": ["protocol", "--d", "3", "--n", "4", "--rounds", "100",
                       "--engine", "statevector", "--labels", "random", "--seed", "401",
                       "--json", "-"],
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_verify_passes_and_reports(capsys):
    code = run_cli(["verify", "--d", "2", "--n", "3", "--rule", "all",
                    "--exhaustive", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    assert "seed=1" in out


def test_verify_sampled_rule_white():
    assert run_cli(["verify", "--d", "5", "--n", "4", "--rule", "white",
                    "--samples", "5", "--seed", "7"]) == 0


def test_verify_impossible_tolerance_fails(capsys):
    code = run_cli(["verify", "--d", "2", "--rule", "bell", "--tol", "1e-30",
                    "--seed", "1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_cap_refusal(capsys):
    code = run_cli(["verify", "--d", "9", "--n", "6", "--exhaustive"])
    assert code == 2
    assert "amplitudes" in capsys.readouterr().err


def spy_blocks(monkeypatch):
    """Record every (m, rows) block cmd_verify hands to verify_swap_block."""
    blocks, original = [], cli.verify_swap_block

    def spy(rule, d, rows, m=None):
        blocks.append((m, [tuple(int(x) for x in row) for row in rows]))
        return original(rule, d, rows, m=m)

    monkeypatch.setattr(cli, "verify_swap_block", spy)
    return blocks


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "2", "--n", "3", "--rule", "all", "--seed", "1"],
    ["verify", "--d", "3", "--n", "3", "--rule", "all", "--samples", "30",
     "--seed", "9"],
])
def test_verify_report_does_not_depend_on_block_size(monkeypatch, tmp_path, argv):
    reports = []
    for cap in (statevec.BLOCK_AMPLITUDES, 1):
        # at 1, one tuple's d^4 outcome terms exceed the budget: blocks of one
        monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", cap)
        blocks = spy_blocks(monkeypatch)
        target = tmp_path / f"verify-{cap}.json"
        assert run_cli(argv + ["--json", str(target)]) == 0
        assert (max(len(rows) for _, rows in blocks) == 1) == (cap == 1)
        reports.append(target.read_bytes())
        monkeypatch.undo()
    assert reports[0] == reports[1]
    cases = [check["cases"] for check in json.loads(reports[0])["checks"]]
    assert cases == ([16, 32, 64] if "--samples" not in argv else [30, 30, 30])


def test_verify_samples_draw_labels_then_m_per_block(monkeypatch):
    # Draw blocks of 10 cases, 25 = 10 + 10 + 5: each draws its tuples, then
    # on white each tuple's m, and hands its rows over grouped by m, in
    # verify blocks of at most 4 rows.
    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 10)
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", 3**4 * 4)
    blocks = spy_blocks(monkeypatch)
    assert run_cli(["verify", "--d", "3", "--n", "4", "--samples", "25",
                    "--seed", "5"]) == 0
    draw, expected = cli._draws(5), []
    for rule, width in (("bell", 4), ("black", 6), ("white", 6)):
        for count in (10, 10, 5):
            rows = list(map(tuple, draw(3, (count, width)).tolist()))
            ms = (2 + draw(3, count)).tolist() if rule == "white" else [None] * count
            for m in sorted(set(ms), key=lambda m: m or 0):
                group = [row for row, row_m in zip(rows, ms) if row_m == m]
                expected += [(m, group[i:i + 4]) for i in range(0, len(group), 4)]
    assert blocks == expected


def test_verify_exhaustive_blocks_are_the_tuples_in_order(monkeypatch):
    # 50 rows a block: 81 = 50 + 31 and 729 = 14 * 50 + 29 split every rule
    monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", 3**4 * 50)
    per_block = statevec.block_rows(3, 4)
    blocks = spy_blocks(monkeypatch)
    assert run_cli(["verify", "--d", "3", "--n", "4", "--rule", "all",
                    "--seed", "1"]) == 0
    bell = [rows for _, rows in blocks if len(rows[0]) == 4]
    black = [rows for m, rows in blocks if m is None and len(rows[0]) == 6]
    white = [(m, rows) for m, rows in blocks if m is not None]
    assert [m for m, _ in white] == [2, 3, 4] * (len(white) // 3)
    assert all(white[i][1] == white[i + 1][1] == white[i + 2][1]
               for i in range(0, len(white), 3))
    for width, cut in ((4, bell), (6, black), (6, [rows for _, rows in white[::3]])):
        assert [len(rows) for rows in cut] == (
            [per_block] * (3**width // per_block) + [3**width % per_block])
        assert sum(cut, []) == list(product(range(3), repeat=width))


def test_verify_without_seed_reports_a_seed_that_replays(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli(["verify", "--d", "2", "--n", "3", "--json", str(first)]) == 0
    seed = json.loads(first.read_bytes())["parameters"]["seed"]
    assert isinstance(seed, int) and 0 <= seed < 1 << 64
    assert run_cli(["verify", "--d", "2", "--n", "3", "--seed", str(seed),
                    "--json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def fresh_run(script, argv):
    """Run script with argv in a fresh interpreter that imports this
    quditswap; return the words of its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.split()


def test_no_command_loads_numpy_random():
    # numpy 2.x loads numpy.random on first access to np.random, 1.x at
    # import. Every command draws from random.Random bytes, and a seedless
    # run picks its seed from random.SystemRandom, not secrets (which
    # loads hashlib and OpenSSL's _hashlib).
    script = ("import sys, numpy; before = 'numpy.random' in sys.modules\n"
              "from quditswap.cli import main\n"
              "codes = [main(argv.split()) for argv in sys.argv[1:]]\n"
              "print(before, *codes, *(name in sys.modules for name in "
              "('numpy.random', 'secrets', 'hashlib')))")
    commands = ["protocol --d 3 --n 3 --rounds 20 --labels random --seed 1",
                "protocol --d 3 --n 3 --rounds 20 --labels random --engine statevector",
                "collude --d 2 --n 3 --missing 2 --oracle --seed 1",
                "verify --d 2 --n 3 --seed 1",
                "verify --d 3 --n 4 --samples 30"]
    before, *rest = fresh_run(script, commands)[-len(commands) - 4:]
    if before == "True":
        pytest.skip("import numpy alone loads numpy.random")
    assert rest == ["0"] * len(commands) + ["False"] * 3


def test_verify_keeps_its_heap():
    # main raises glibc's mmap and trim thresholds, so verify's support
    # sums, whose block arrays are each above glibc's default mmap
    # threshold, stay in the heap: a second call in the process faults few
    # pages in (1,000 to 3,600 were each block array mapped afresh or
    # trimmed away)
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap policy is glibc's mallopt")
    script = ("import os, resource, sys\n"
              "from quditswap.cli import main\n"
              "for _ in range(2):\n"
              "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    code = main([*sys.argv[1:], '--json', os.devnull])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)")
    code, faults = map(int, fresh_run(script, ["verify", "--d", "3", "--n", "4",
                                               "--seed", "1"])[-2:])
    assert code == 0 and faults < 100


def test_verify_refuses_over_cap_before_any_block(monkeypatch, capsys):
    monkeypatch.setattr(statevec, "MAX_AMPLITUDES", 3**5)

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran before the cap check")

    monkeypatch.setattr(cli, "verify_swap_block", no_block)
    assert run_cli(["verify", "--d", "3", "--n", "4", "--seed", "1"]) == 2
    assert "amplitudes" in capsys.readouterr().err


def test_verify_fails_on_a_nan_deviation(monkeypatch, capsys):
    # NaN compares false with everything: the running maximum must keep it,
    # and the rule must fail
    original = cli.verify_swap_block

    def nan_last(rule, d, rows, m=None):
        deviations = original(rule, d, rows, m=m)
        deviations[-1] = np.nan
        return deviations

    monkeypatch.setattr(cli, "verify_swap_block", nan_last)
    assert run_cli(["verify", "--d", "2", "--n", "3", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("max deviation nan") == 3 and out.count("   FAIL") == 3


def test_verify_rejects_bad_dimension():
    assert run_cli(["verify", "--d", "1"]) == 2
    assert run_cli(["verify", "--d", "17"]) == 2


def test_verify_json_roundtrip(tmp_path):
    target = tmp_path / "verify.json"
    argv = ["verify", "--d", "3", "--rule", "bell", "--seed", "5",
            "--json", str(target)]
    assert run_cli(argv) == 0
    first = target.read_bytes()
    report = json.loads(first)
    assert report["ok"] is True
    assert report["checks"][0]["cases"] == 81
    assert report["checks"][0]["max_deviation"] < report["checks"][0]["tol"]
    assert run_cli(argv) == 0
    assert target.read_bytes() == first


def test_protocol_statevector_run(capsys):
    code = run_cli(["protocol", "--d", "2", "--n", "3", "--rounds", "25",
                    "--engine", "statevector", "--labels", "zero",
                    "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "success rate 1.0000" in out


def test_protocol_zero_rounds(capsys):
    assert run_cli(["protocol", "--d", "2", "--rounds", "0", "--seed", "3"]) == 0
    assert "no rounds" in capsys.readouterr().out


def test_protocol_statevector_cap(capsys):
    # 16^(5+2) = 2^28 amplitudes for the largest dense step, over the 2^24 cap
    code = run_cli(["protocol", "--d", "16", "--n", "5", "--rounds", "1",
                    "--engine", "statevector"])
    assert code == 2
    assert "symbolic" in capsys.readouterr().err


def test_protocol_json_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["protocol", "--d", "3", "--n", "4", "--rounds", "40",
            "--labels", "random", "--seed", "123"]
    assert run_cli(base + ["--json", str(a)]) == 0
    assert run_cli(base + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["success_rate"] == 1.0
    assert len(report["transcripts"]) == 40
    transcript = report["transcripts"][0]
    assert set(transcript) == {"d", "n", "seed", "engine", "cat_labels",
                               "bell_labels", "outcomes", "announced", "key",
                               "recovered", "ok"}
    assert transcript["ok"] is True
    assert sum(sum(row) for row in report["key_counts"]) == 40


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 4)])
def test_protocol_engines_give_the_same_transcripts(tmp_path, d, n):
    # both engines take one outcome draw per step, so seed and flags fix the
    # report; only the engine fields differ
    reports = {}
    for engine in ("symbolic", "statevector"):
        target = tmp_path / f"{engine}.json"
        assert run_cli(["protocol", "--d", str(d), "--n", str(n), "--rounds", "30",
                        "--labels", "random", "--seed", "5", "--engine", engine,
                        "--json", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["parameters"].pop("engine") == engine
        assert [t.pop("engine") for t in report["transcripts"]] == [engine] * 30
        reports[engine] = report
    assert reports["statevector"] == reports["symbolic"]


@pytest.mark.parametrize("engine, budget", [
    pytest.param("symbolic", None, id="symbolic"),
    pytest.param("statevector", None, id="statevector"),
    pytest.param("statevector", lambda d, n: 1, id="statevector-budget1"),
    pytest.param("statevector", lambda d, n: 2 * d ** 3,
                 id="statevector-budget2rounds"),
])
@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 4), (7, 5)])
def test_protocol_blocks_are_forced_rounds(monkeypatch, capsys, engine, budget, d, n):
    # Each transcript the block path reports is run_round replayed under the
    # transcript's own labels and outcomes. Blocks of 3 rounds leave a
    # partial last block. The statevector engine splits each block into
    # sub-blocks of block_rows(d, 3) = BLOCK_AMPLITUDES // d^3 rounds, one
    # d^3 overlap block per round, at least one:
    # the default budget, a budget of 1 (one round per sub-block), and one
    # of two rounds, which leaves a partial last sub-block.
    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    if budget:
        monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget(d, n))
    starts, start = [], protocol._dense_start
    monkeypatch.setattr(protocol, "_dense_start",
                        lambda d, n, cat: starts.append(len(cat)) or start(d, n, cat))
    rounds = 2 if (engine, d) == ("statevector", 7) else 8
    assert run_cli(["protocol", "--d", str(d), "--n", str(n), "--rounds", str(rounds),
                    "--labels", "random", "--seed", "17", "--engine", engine,
                    "--json", "-"]) == 0
    transcripts = json.loads(capsys.readouterr().out)["transcripts"]
    assert len(transcripts) == rounds
    rows = statevec.block_rows(d, 3)
    blocks = [min(3, rounds - first) for first in range(0, rounds, 3)]
    assert starts == ([] if engine == "symbolic" else
                      [min(rows, count - s) for count in blocks
                       for s in range(0, count, rows)])
    monkeypatch.undo()
    for record in transcripts:
        config = ProtocolConfig(d, n, record["cat_labels"], record["bell_labels"],
                                seed=record["seed"])
        forced = [(step["k"], step["l"]) for step in record["outcomes"]]
        assert record == transcript_to_json_dict(
            run_round(config, engine, forced_outcomes=forced))


@pytest.mark.parametrize("role, signs", [(0, (0, 1)), (1, (1, 0))])
def test_protocol_verdicts_are_the_one_round_verdicts(monkeypatch, capsys, role, signs):
    # A zero sign drops k or l from one role's rewrite, so some rounds fail
    # their recovery identities. The command's array verdicts must be
    # transcript_to_json_dict's one-round verdicts, record for record, and
    # the command must fail.
    roles = protocol._ROLE_SIGNS
    monkeypatch.setattr(protocol, "_ROLE_SIGNS", roles[:role] + (signs,) + roles[role + 1:])
    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    assert run_cli(["protocol", "--d", "3", "--n", "4", "--rounds", "8",
                    "--labels", "random", "--seed", "17", "--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["success_rate"] < 1
    records = report["transcripts"]
    assert len(records) == 8 and not all(record["ok"] for record in records)
    for record in records:
        config = ProtocolConfig(3, 4, record["cat_labels"], record["bell_labels"],
                                seed=record["seed"])
        forced = [(step["k"], step["l"]) for step in record["outcomes"]]
        assert record == transcript_to_json_dict(run_round(config, forced_outcomes=forced))


def test_protocol_report_streams_one_record_per_line(monkeypatch, capsys):
    # The report is the indented, key-sorted JSON of everything but the
    # transcripts, which sort last and hold one compact record per line.
    # Each record reaches the spool led by ",\n", and the report drops only
    # the first one's comma: blocks of 3 rounds, and chunks of the default
    # size and of one record, put block and chunk edges between records.
    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    for budget in (statevec.BLOCK_AMPLITUDES, 1):
        monkeypatch.setattr(statevec, "BLOCK_AMPLITUDES", budget)
        assert run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "8",
                        "--labels", "random", "--seed", "2", "--json", "-"]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        records = report.pop("transcripts")
        head = json.dumps(report, indent=2, sort_keys=True)[:-2]
        lines = ",\n".join("    " + json.dumps(record, sort_keys=True) for record in records)
        assert text == head + ',\n  "transcripts": [\n' + lines + "\n  ]\n}\n"
        assert len(records) == 8


def test_protocol_report_memory_is_flat_in_rounds(tmp_path):
    # Records stream through a spool block by block, so the traced peak of
    # eight blocks of rounds stays near that of one.
    peaks = []
    for rounds in (1024, 8192):
        tracemalloc.start()
        assert run_cli(["protocol", "--d", "7", "--n", "5", "--rounds", str(rounds),
                        "--labels", "random", "--seed", "401",
                        "--json", str(tmp_path / "report.json")]) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_collude_rounds_are_forced_rounds(monkeypatch):
    # collude takes its rounds from the protocol command's block path, as
    # round_blocks' arrays; blocks of 3 rounds leave a partial last block.
    # Each row collusion_counts sees is the command's draw, its announcement
    # is run_round's replayed under the row's labels and outcomes, and its
    # counts are collusion_posterior on that replay.
    counts, seen = cli.collusion_counts, []

    def capture(d, cat, bells, steps, announced, known):
        result = counts(d, cat, bells, steps, announced, known)
        seen.append((cat, bells, steps, announced, known, result))
        return result

    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    monkeypatch.setattr(cli, "collusion_counts", capture)
    assert run_cli(["collude", "--d", "3", "--n", "4", "--missing", "3",
                    "--rounds", "8", "--seed", "17"]) == 0
    assert [len(block[0]) for block in seen] == [3, 3, 2]
    draw = cli._draws(17)
    draws = cli._protocol_draws(3, 4, 8, draw, cli._random_labels(draw, 3, 4))
    rows = []
    for (cat, bells, steps, announced, known, result), draw in zip(seen, draws):
        assert known == [2, 4]
        assert [cat.tolist(), bells.tolist(), steps.tolist()] == [
            draw[0].tolist(), draw[1].tolist(), (draw[2] @ (3, 1)).tolist()]
        for row in zip(cat.tolist(), bells.tolist(), draw[2].tolist(),
                       announced.tolist(), result.tolist()):
            replay = run_round(ProtocolConfig(3, 4, row[0], row[1]),
                               forced_outcomes=row[2])
            assert list(replay.announced) == row[3]
            assert collusion_posterior(3, replay, known) == tuple(
                Fraction(c, 3) for c in row[4])
            rows.append(row)
    assert len(rows) == 8 and len({str(row[:2]) for row in rows}) > 1


def test_collude_rounds_build_no_transcripts(monkeypatch, capsys):
    # collude --rounds reads round_blocks' arrays: no round becomes a
    # Transcript and no ProtocolConfig is made
    def refuse(*args):
        raise AssertionError("collude --rounds built a Transcript or a ProtocolConfig")

    monkeypatch.setattr(protocol, "_transcripts", refuse)
    monkeypatch.setattr(ProtocolConfig, "__post_init__", refuse)
    assert run_cli(["collude", "--d", "3", "--n", "4", "--missing", "3",
                    "--rounds", "50", "--seed", "1"]) == 0
    assert "[1/3, 1/3, 1/3]" in capsys.readouterr().out


def test_collude_rounds_fail_on_a_leaky_announcement(monkeypatch, capsys):
    # Rounds that announce a1 = v1 + k1 leak the first key dit to any
    # coalition, yet collusion_counts' convolution stays uniform on them:
    # collude --rounds must fail through recover_rounds' announcement check.
    blocks = cli.round_blocks

    def leak(d, n, *draw):
        for cat, bells, (steps, announced, *rest) in blocks(d, n, *draw):
            announced = announced.copy()
            announced[:, 0] = (bells[:, 0, 0] + steps[:, 0] // d) % d
            counts = cli.collusion_counts(d, cat, bells, steps, announced, [2, 4])
            assert np.all(counts == counts[:, :1])
            yield cat, bells, (steps, announced, *rest)

    argv = ["collude", "--d", "3", "--n", "4", "--missing", "3", "--rounds", "2000",
            "--seed", "401", "--json", "-"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["uniform"] is True
    monkeypatch.setattr(cli, "round_blocks", leak)
    assert run_cli(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["uniform"] is False and report["ok"] is False


def test_collude_rounds_report_bytes(capsys):
    # 4,000 posterior rounds at d=7 n=5, four blocks of the command's draws
    assert run_cli(["collude", "--d", "7", "--n", "5", "--missing", "3",
                    "--rounds", "4000", "--seed", "401", "--json", "-"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["uniform"] is True
    assert sha256(text) == REPORT_DIGESTS["collude-rounds"]


def test_protocol_bench_sized_symbolic(capsys):
    # the protocol-symbolic benchmark command
    code = run_cli(PROTOCOL_BENCH_ARGV["protocol-symbolic"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert report["success_rate"] == 1.0 and report["chi_square"]["pass"] is True
    assert len(report["transcripts"]) == 4000
    assert all(record["ok"] for record in report["transcripts"])
    assert sha256(text) == REPORT_DIGESTS["protocol-symbolic"]
    assert (sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")
            == CONTENT_DIGESTS["protocol-symbolic"])


def test_protocol_bench_sized_dense(capsys):
    # the protocol-dense benchmark command
    code = run_cli(PROTOCOL_BENCH_ARGV["protocol-dense"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert len(report["transcripts"]) == 100
    assert all(record["ok"] for record in report["transcripts"])
    assert sha256(text) == REPORT_DIGESTS["protocol-dense"]
    assert (sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")
            == CONTENT_DIGESTS["protocol-dense"])


def test_protocol_reports_move_only_with_the_draw_source(monkeypatch, capsys):
    # With numpy's seeded integers put back as the draw source, both
    # protocol benchmark reports are byte for byte the ones it gave
    def numpy_draws(seed):
        rng = np.random.default_rng(seed)
        return lambda high, shape: rng.integers(0, high, shape)

    monkeypatch.setattr(cli, "_draws", numpy_draws)
    for name, argv in PROTOCOL_BENCH_ARGV.items():
        assert run_cli(argv) == 0
        text = capsys.readouterr().out
        content = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert (sha256(text), sha256(content)) == NUMPY_STREAM_DIGESTS[name]


class ByteSource:
    """Stands in for random.Random: its randbytes hands out the given bytes
    in order, once, and fails when asked for more."""

    def __init__(self, data):
        self.data = bytes(data)

    def __call__(self, seed):
        return self

    def randbytes(self, count):
        assert count <= len(self.data), "read past the byte source"
        head, self.data = self.data[:count], self.data[count:]
        return head


@pytest.mark.parametrize("high", range(2, 22))
def test_draw_is_exactly_uniform_on_every_byte(monkeypatch, high):
    # Bytes 255 down to 0, once: the rejected bytes come first, so draw
    # reads again until it holds 256 - 256 % high dits, ending on byte 0,
    # and each dit is as many of the kept bytes as any other.
    kept = 256 - 256 % high
    source = ByteSource(range(255, -1, -1))
    monkeypatch.setattr(cli.random, "Random", source)
    dits = cli._draws(0)(high, (kept // high, high))
    assert dits.shape == (kept // high, high) and source.data == b""
    assert np.bincount(dits.ravel(), minlength=high).tolist() == [kept // high] * high
    assert dits.ravel().tolist() == [b % high for b in range(kept - 1, -1, -1)]


def test_draws_are_one_byte_stream_however_shaped():
    # randbytes drops the unused bits of a partial 32-bit word; draw keeps
    # whole words, so one draw and many small ones give the same dits
    for high in (2, 3, 7, 21, 256):
        whole, pieces = cli._draws(9), cli._draws(9)
        assert whole(high, (30, 7)).tolist() == [
            row for _ in range(30) for row in pieces(high, (1, 7)).tolist()]


def test_draw_refuses_a_range_outside_one_byte():
    draw = cli._draws(1)
    for high in (1, 257):
        with pytest.raises(ValueError, match="2..256"):
            draw(high, 3)
    assert draw(256, (2, 3)).shape == (2, 3) and draw(2, 0).shape == (0,)


def test_verify_bench_sized_exhaustive(capsys):
    # the verify-exhaustive benchmark command
    code = run_cli(["verify", "--d", "3", "--n", "4", "--rule", "all",
                    "--seed", "401", "--json", "-"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert sum(check["cases"] for check in report["checks"]) == 2997
    assert all(check["max_deviation"] < 1e-9 for check in report["checks"])
    assert sha256(text) == REPORT_DIGESTS["verify-exhaustive"]


def test_verify_sampled_report_bytes(capsys):
    assert run_cli(["verify", "--d", "3", "--n", "3", "--rule", "all",
                    "--samples", "30", "--seed", "9", "--json", "-"]) == 0
    assert sha256(capsys.readouterr().out) == REPORT_DIGESTS["verify-sampled-d3"]


def test_verify_samples_pin_the_drawn_tuples(monkeypatch, capsys):
    blocks, original = [], cli.verify_swap_block

    def spy(rule, d, rows, m=None):
        blocks.append([rule, m, np.asarray(rows).tolist()])
        return original(rule, d, rows, m=m)

    monkeypatch.setattr(cli, "verify_swap_block", spy)
    assert run_cli(["verify", "--d", "3", "--n", "3", "--rule", "all",
                    "--samples", "30", "--seed", "9", "--json", "-"]) == 0
    assert sum(len(rows) for _, _, rows in blocks) == 90
    assert sha256(json.dumps(blocks)) == SAMPLED_TUPLES_DIGEST


def test_protocol_json_stdout_is_pure(capsys):
    assert run_cli(["protocol", "--d", "2", "--rounds", "3", "--seed", "9",
                    "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "protocol"


def test_protocol_labels_file(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"cat_labels": [1, 2, 0],
                                  "bell_labels": [[2, 1], [0, 2], [1, 1]]}))
    code = run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "10",
                    "--labels", str(labels), "--seed", "2"])
    assert code == 0
    assert "success rate 1.0000" in capsys.readouterr().out

    labels.write_text(json.dumps({"cat_labels": [1], "bell_labels": [[0, 0]]}))
    assert run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "1",
                    "--labels", str(labels)]) == 2
    assert run_cli(["protocol", "--d", "2", "--rounds", "1",
                    "--labels", str(tmp_path / "absent.json")]) == 2


def test_protocol_malformed_labels_file_is_a_usage_error(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    for data in ([[1, 2, 0], [[0, 0]] * 3],
                 {"cat_labels": [1, 2, 0], "bell_labels": [1, 2, 3]},
                 {"cat_labels": 5, "bell_labels": [[0, 0]] * 3},
                 {"cat_labels": [1.7, 0, 0], "bell_labels": [[0, 0]] * 3},
                 {"cat_labels": [True, 0, 0], "bell_labels": [[0, 0]] * 3},
                 {"cat_labels": "012", "bell_labels": [[0, 0]] * 3},
                 {"cat_labels": [1, 2, 0], "bell_labels": [[0, 0], [0, 1.0], [0, 0]]},
                 {"cat_labels": [1, 2, 0], "bell_labels": [[0, 0], "01", [0, 0]]}):
        labels.write_text(json.dumps(data))
        assert run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "1",
                        "--labels", str(labels)]) == 2
        assert "bad labels source" in capsys.readouterr().err
    labels.write_text(json.dumps({"cat_labels": [1, 2, 3], "bell_labels": [[0, 0]] * 3}))
    assert run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "1",
                    "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == \
        "error: bad labels source: labels file holds values outside 0..2\n"


def test_protocol_prints_derived_seed(capsys):
    assert run_cli(["protocol", "--d", "2", "--rounds", "2"]) == 0
    assert "seed=" in capsys.readouterr().out


def test_collude_posterior(capsys):
    code = run_cli(["collude", "--d", "3", "--n", "4", "--missing", "3",
                    "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1/3, 1/3, 1/3]" in out


def test_collude_nothing_known(capsys):
    code = run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2,3",
                    "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1/2, 1/2]" in out


def test_collude_with_oracle(capsys):
    code = run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                    "--oracle", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "balanced first dit: PASS" in out


def test_collude_bench_sized_oracle(capsys):
    # the collude-oracle benchmark command: 4^7 branches in many blocks
    code = run_cli(["collude", "--d", "2", "--n", "7", "--missing", "3",
                    "--oracle", "--seed", "401", "--json", "-"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert report["oracle"] == {"branches": 16384, "view_classes": 4096,
                                "balanced": True}
    assert sha256(text) == REPORT_DIGESTS["collude-oracle"]


def test_collude_oracle_two_missing_at_d3(capsys):
    code = run_cli(["collude", "--d", "3", "--n", "4", "--missing", "2,4",
                    "--oracle", "--seed", "5", "--json", "-"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert report["oracle"] == {"branches": 6561, "view_classes": 243,
                                "balanced": True}
    assert sha256(text) == REPORT_DIGESTS["collude-oracle-d3"]


def test_collude_oracle_builds_no_transcripts(monkeypatch, capsys):
    # collude --oracle tallies the walk's integer blocks through
    # protocol.oracle_view_tally; no branch becomes a Transcript
    def no_transcripts(*args):
        raise AssertionError("collude --oracle built Transcripts")

    monkeypatch.setattr(protocol, "_transcripts", no_transcripts)
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                    "--rounds", "0", "--oracle", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "64 branches" in out and "balanced first dit: PASS" in out


def test_collude_oracle_builds_no_dict(monkeypatch, capsys):
    # collude --oracle reads oracle_view_tally's arrays; the dict view is
    # for library callers, and both pinned oracle reports keep their bytes
    def no_dict(*args):
        raise AssertionError("collude --oracle built the view-class dict")

    for module in (protocol, cli):
        monkeypatch.setattr(module, "oracle_view_counts", no_dict, raising=False)
    for argv, name in ((["--d", "2", "--n", "7", "--missing", "3", "--seed", "401"],
                        "collude-oracle"),
                       (["--d", "3", "--n", "4", "--missing", "2,4", "--seed", "5"],
                        "collude-oracle-d3")):
        assert run_cli(["collude", *argv, "--oracle", "--json", "-"]) == 0
        assert sha256(capsys.readouterr().out) == REPORT_DIGESTS[name]


def test_collude_oracle_fails_on_an_unbalanced_class(monkeypatch, capsys):
    # A tally whose second class gives first dit 0 on both its branches is
    # a leak, although the first class is balanced: the command must say so
    # and exit 1.
    def leaky(config, known):
        views = np.zeros((2, config.n + 2 * len(known)), dtype=int)
        return views, np.array([[1, 1], [2, 0]])

    monkeypatch.setattr(cli, "oracle_view_tally", leaky)
    argv = ["collude", "--d", "2", "--n", "3", "--missing", "2", "--rounds", "0",
            "--oracle", "--seed", "1"]
    assert run_cli(argv) == 1
    assert "  oracle: 4 branches in 2 view classes, balanced first dit: FAIL" in (
        capsys.readouterr().out.splitlines())
    assert run_cli(argv + ["--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"] == {"branches": 4, "view_classes": 2, "balanced": False}
    assert report["ok"] is False


def test_collude_zero_rounds_reports_no_posterior(capsys):
    argv = ["collude", "--d", "2", "--n", "3", "--missing", "2",
            "--rounds", "0", "--seed", "1"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "  no rounds requested" in out.splitlines()
    assert "posterior" not in out and "uniform" not in out
    assert run_cli(argv + ["--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["posterior"] is None and report["uniform"] is None
    assert report["oracle"] is None and report["ok"] is True

    assert run_cli(argv + ["--oracle"]) == 0
    out = capsys.readouterr().out
    assert "  no rounds requested" in out.splitlines()
    assert "64 branches" in out and "balanced first dit: PASS" in out
    assert run_cli(argv + ["--oracle", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["posterior"] is None and report["uniform"] is None
    assert report["oracle"]["branches"] == 64 and report["oracle"]["balanced"]
    assert report["ok"] is True


def test_collude_usage_errors():
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", ""]) == 2
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "1"]) == 2
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "4"]) == 2
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "x"]) == 2
    assert run_cli(["collude", "--d", "2", "--n", "3"]) == 2  # flag required


def test_collude_oracle_at_the_branch_cap(capsys):
    # (8^2)^3 = 2^18 branches, the most the command walks: it passes and
    # every view class is balanced
    assert 64 ** 3 == cli.MAX_ORACLE_BRANCHES
    code = run_cli(["collude", "--d", "8", "--n", "3", "--missing", "2",
                    "--oracle", "--seed", "1", "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert report["oracle"]["branches"] == 64 ** 3 and report["oracle"]["balanced"]


def test_collude_oracle_cap(capsys):
    code = run_cli(["collude", "--d", "5", "--n", "4", "--missing", "2",
                    "--oracle", "--seed", "1"])
    assert code == 2
    assert "refusing" in capsys.readouterr().err
    # the amplitude cap is checked before the branch cap
    assert run_cli(["collude", "--d", "16", "--n", "5", "--missing", "2",
                    "--oracle", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: refusing: state of 7 dimension-16 qudits needs 268435456 amplitudes, "
        "above the 16777216 cap; lower --d or --n\n")


def test_chi_square_critical_close_to_exact():
    # exact inverse CDF values
    assert chi_square_critical(8, 0.001) == pytest.approx(26.124482, abs=1e-4)
    assert chi_square_critical(3, 0.001) == pytest.approx(16.2662, abs=1e-4)
    assert chi_square_critical(48, 0.001) == pytest.approx(84.037134, abs=1e-4)


def test_chi_square_critical_stops_where_100_steps_settle():
    # the bisection stops once its midpoint is an end, where 100 fixed
    # steps, the reference here, have settled: both give the same float
    def hundred_steps(dof, alpha):
        lo, hi = 0.0, float(dof)
        while cli.chi_square_survival(hi, dof) > alpha:
            lo, hi = hi, 2 * hi
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cli.chi_square_survival(mid, dof) > alpha else (lo, mid)
        return (lo + hi) / 2

    for alpha in (0.001, 0.05):
        for dof in range(1, 256):
            assert chi_square_critical(dof, alpha) == hundred_steps(dof, alpha), (dof, alpha)


def test_verify_rejects_nonpositive_samples(capsys):
    assert run_cli(["verify", "--d", "2", "--samples", "0"]) == 2
    assert run_cli(["verify", "--d", "2", "--samples", "-5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_collude_rejects_negative_rounds(capsys):
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                    "--rounds", "-3"]) == 2
    assert "--rounds" in capsys.readouterr().err


def test_out_of_range_arguments_name_their_flag(capsys):
    for argv, flag in ((["protocol", "--n", "1"], "--n"),
                       (["collude", "--n", "1", "--missing", "2"], "--n"),
                       (["protocol", "--rounds", "-1"], "--rounds"),
                       (["collude", "--d", "17", "--missing", "2"], "--d"),
                       (["verify", "--n", "-3", "--rule", "bell"], "--n"),
                       (["verify", "--n", "2"], "--n"),
                       *((["verify", "--rule", "bell", "--tol", tol], "--tol")
                         for tol in ("nan", "inf", "0", "-1"))):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "usage:" in err
    assert run_cli(["protocol", "--d", "17"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    target = str(tmp_path / "absent" / "report.json")
    assert run_cli(["verify", "--d", "2", "--rule", "bell", "--seed", "1",
                    "--json", target]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["protocol", "--d", "2", "--rounds", "2", "--seed", "1",
                    "--json", target]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                    "--seed", "1", "--json", target]) == 2
    assert "error:" in capsys.readouterr().err
