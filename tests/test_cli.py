import json
from collections import Counter

import numpy as np
import pytest

from quditswap import cli
from quditswap.cli import chi_square_critical, main
from quditswap.protocol import ProtocolConfig, run_round, transcript_to_json_dict


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
    for cap in (cli.VERIFY_BLOCK_AMPLITUDES, 1):
        # at 1, every label tuple's d^(n+2) exceeds the constant: blocks of one
        monkeypatch.setattr(cli, "VERIFY_BLOCK_AMPLITUDES", cap)
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
    monkeypatch.setattr(cli, "MAX_AMPLITUDES", 3**5)

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran before the cap check")

    monkeypatch.setattr(cli, "verify_swap_block", no_block)
    assert run_cli(["verify", "--d", "3", "--n", "4", "--seed", "1"]) == 2
    assert "amplitudes" in capsys.readouterr().err


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


@pytest.mark.parametrize("engine", ["symbolic", "statevector"])
@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 4), (7, 5)])
def test_protocol_blocks_are_forced_rounds(monkeypatch, capsys, engine, d, n):
    # Each transcript the block path reports is run_round replayed under the
    # transcript's own labels and outcomes. Blocks of 3 rounds leave a
    # partial last block.
    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    rounds = 2 if (engine, d) == ("statevector", 7) else 8
    assert run_cli(["protocol", "--d", str(d), "--n", str(n), "--rounds", str(rounds),
                    "--labels", "random", "--seed", "17", "--engine", engine,
                    "--json", "-"]) == 0
    transcripts = json.loads(capsys.readouterr().out)["transcripts"]
    assert len(transcripts) == rounds
    for record in transcripts:
        config = ProtocolConfig(d, n, record["cat_labels"], record["bell_labels"],
                                seed=record["seed"])
        forced = [(step["k"], step["l"]) for step in record["outcomes"]]
        assert record == transcript_to_json_dict(
            run_round(config, engine, forced_outcomes=forced))


def test_collude_rounds_are_forced_rounds(monkeypatch):
    # collude takes its rounds from the protocol command's block path. Each
    # transcript the posterior sees is run_round replayed under its own
    # labels and outcomes; blocks of 3 rounds leave a partial last block.
    posterior, seen = cli.collusion_posterior, []

    def capture(d, transcript, known):
        seen.append(transcript)
        return posterior(d, transcript, known)

    monkeypatch.setattr(cli, "PROTOCOL_BLOCK_ROUNDS", 3)
    monkeypatch.setattr(cli, "collusion_posterior", capture)
    assert run_cli(["collude", "--d", "3", "--n", "4", "--missing", "3",
                    "--rounds", "8", "--seed", "17"]) == 0
    assert len(seen) == 8 and len({t.config for t in seen}) > 1
    rng = np.random.default_rng(17)
    assert seen == list(cli._protocol_rounds(3, 4, 8, "symbolic", 17, rng,
                                             cli._random_labels(rng, 3, 4)))
    for transcript in seen:
        assert transcript == run_round(transcript.config,
                                       forced_outcomes=transcript.outcomes)


def test_protocol_bench_sized_symbolic(capsys):
    # the protocol-symbolic benchmark command
    code = run_cli(["protocol", "--d", "7", "--n", "5", "--rounds", "4000",
                    "--engine", "symbolic", "--labels", "random", "--seed", "401",
                    "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert report["success_rate"] == 1.0 and report["chi_square"]["pass"] is True
    assert len(report["transcripts"]) == 4000
    assert all(record["ok"] for record in report["transcripts"])


def test_verify_bench_sized_exhaustive(capsys):
    # the verify-exhaustive benchmark command
    code = run_cli(["verify", "--d", "3", "--n", "4", "--rule", "all",
                    "--seed", "401", "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert sum(check["cases"] for check in report["checks"]) == 2997
    assert all(check["max_deviation"] < 1e-9 for check in report["checks"])


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
                 {"cat_labels": 5, "bell_labels": [[0, 0]] * 3}):
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
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert report["oracle"] == {"branches": 16384, "view_classes": 4096,
                                "balanced": True}


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
