import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

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
        "f6cb690ba09e33c232759ffdc622fb1185ad4ad800eeba92cf6168421f83a6da",
    "protocol-dense":
        "c491760b4d76ba1f035232cc4226be296e5af8147c1e43b600f7da6a548e386c",
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
        "30175b196614c412798de75de40c8a47e78aeb3979e5684f7670abed4c93261f",
    "protocol-dense":
        "90c3f9386e4522379b45dfdf286fb9d7528f5eb1df873dc9779b5ecb4aece5e9",
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


def test_verify_samples_draw_labels_then_m_per_case(monkeypatch):
    blocks = spy_blocks(monkeypatch)
    assert run_cli(["verify", "--d", "3", "--n", "4", "--samples", "25",
                    "--seed", "5"]) == 0
    rng = np.random.default_rng(5)
    expected = []
    for rule, width in (("bell", 4), ("black", 6), ("white", 6)):
        for _ in range(25):
            flat = tuple(int(x) for x in rng.integers(0, 3, width))
            m = int(rng.integers(2, 5)) if rule == "white" else None
            expected.append((m, flat))
    assert Counter((m, row) for m, rows in blocks for row in rows) == Counter(expected)


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
    pytest.param("statevector", lambda d, n: 2 * d ** (n + 2),
                 id="statevector-budget2rounds"),
])
@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 4), (7, 5)])
def test_protocol_blocks_are_forced_rounds(monkeypatch, capsys, engine, budget, d, n):
    # Each transcript the block path reports is run_round replayed under the
    # transcript's own labels and outcomes. Blocks of 3 rounds leave a
    # partial last block. The statevector engine splits each block into
    # sub-blocks of BLOCK_AMPLITUDES // d^(n+2) rounds, at least one:
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
    rows = max(1, statevec.BLOCK_AMPLITUDES // d ** (n + 2))
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


def test_protocol_report_streams_one_record_per_line(capsys):
    # The report is the indented, key-sorted JSON of everything but the
    # transcripts, which sort last and hold one compact record per line.
    assert run_cli(["protocol", "--d", "3", "--n", "3", "--rounds", "5",
                    "--labels", "random", "--seed", "2", "--json", "-"]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    records = report.pop("transcripts")
    head = json.dumps(report, indent=2, sort_keys=True)[:-2]
    lines = ",\n".join("    " + json.dumps(record, sort_keys=True) for record in records)
    assert text == head + ',\n  "transcripts": [\n' + lines + "\n  ]\n}\n"
    assert len(records) == 5


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
    rng = np.random.default_rng(17)
    draws = cli._protocol_draws(3, 4, 8, rng, cli._random_labels(rng, 3, 4))
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


def test_collude_rounds_report_bytes(capsys):
    # 4,000 posterior rounds at d=7 n=5, four blocks of the command's draws
    assert run_cli(["collude", "--d", "7", "--n", "5", "--missing", "3",
                    "--rounds", "4000", "--seed", "401", "--json", "-"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["uniform"] is True
    assert sha256(text) == REPORT_DIGESTS["collude-rounds"]


def test_protocol_bench_sized_symbolic(capsys):
    # the protocol-symbolic benchmark command
    code = run_cli(["protocol", "--d", "7", "--n", "5", "--rounds", "4000",
                    "--engine", "symbolic", "--labels", "random", "--seed", "401",
                    "--json", "-"])
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
    code = run_cli(["protocol", "--d", "3", "--n", "4", "--rounds", "100",
                    "--engine", "statevector", "--labels", "random", "--seed", "401",
                    "--json", "-"])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0 and report["ok"] is True
    assert len(report["transcripts"]) == 100
    assert all(record["ok"] for record in report["transcripts"])
    assert sha256(text) == REPORT_DIGESTS["protocol-dense"]
    assert (sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")
            == CONTENT_DIGESTS["protocol-dense"])


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
    # protocol.oracle_view_counts; no branch becomes a Transcript
    def no_transcripts(*args):
        raise AssertionError("collude --oracle built Transcripts")

    monkeypatch.setattr(protocol, "_transcripts", no_transcripts)
    assert run_cli(["collude", "--d", "2", "--n", "3", "--missing", "2",
                    "--rounds", "0", "--oracle", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "64 branches" in out and "balanced first dit: PASS" in out


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


def test_collude_oracle_cap(capsys):
    code = run_cli(["collude", "--d", "5", "--n", "4", "--missing", "2",
                    "--oracle", "--seed", "1"])
    assert code == 2
    assert "refusing" in capsys.readouterr().err


def test_chi_square_critical_close_to_exact():
    # exact inverse CDF values
    assert chi_square_critical(8, 0.001) == pytest.approx(26.124482, abs=1e-4)
    assert chi_square_critical(3, 0.001) == pytest.approx(16.2662, abs=1e-4)
    assert chi_square_critical(48, 0.001) == pytest.approx(84.037134, abs=1e-4)


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
                       (["verify", "--n", "2"], "--n")):
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
