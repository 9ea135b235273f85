"""The README's code blocks run against the code they describe."""

import dataclasses
import importlib
import json
import re
import shlex
from pathlib import Path

import quditswap
from quditswap.cli import build_parser, main
from quditswap.protocol import (PartyView, ProtocolConfig, Transcript, run_round,
                                transcript_to_json_dict)

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def blocks(language):
    return [body for lang, body in BLOCKS if lang == language]


def json_keys(value):
    """Every key of every object nested in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(json_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(json_keys, value))
    return set()


def test_library_example_runs():
    (source,) = blocks("python")
    exec(compile(source, "README.md", "exec"), {})


def test_transcript_example_is_the_worked_round():
    (listing,) = blocks("json")
    config = ProtocolConfig(2, 3, (0,) * 3, ((0, 0),) * 3, seed=7)
    transcript = run_round(config, forced_outcomes=[(1, 1), (0, 1), (1, 0)])
    assert json.loads(listing) == transcript_to_json_dict(transcript)


def test_command_lines_parse():
    commands = [shlex.split(line)[1:] for body in blocks("")
                for line in body.splitlines() if line.startswith("quditswap ")]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_backticked_names_exist(capsys):
    # `name(`, and a bare private or constant name (`_NAME`, `MAX_NAME`), must
    # be defined in some quditswap module and `module.name` in that module;
    # dotted names outside the package (`rng.random()`) are skipped. A bare
    # snake_case name (`run_round`) may also be a JSON key of the README's
    # listing or of a --json report, a field of ProtocolConfig, Transcript
    # or PartyView, or the name of a test function
    (listing,) = blocks("json")
    documents = [json.loads(listing)]
    for argv in (["verify", "--d", "2", "--rule", "bell", "--samples", "1"],
                 ["protocol", "--d", "2", "--rounds", "1"],
                 ["collude", "--d", "2", "--n", "3", "--missing", "2", "--rounds", "1"]):
        assert main(argv + ["--seed", "1", "--json", "-"]) == 0
        documents.append(json.loads(capsys.readouterr().out))
    named_elsewhere = json_keys(documents) | {
        field.name for cls in (ProtocolConfig, Transcript, PartyView)
        for field in dataclasses.fields(cls)} | {
        name for path in TESTS.glob("*.py")
        for name in re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"),
                               flags=re.MULTILINE)}
    modules = {name: importlib.import_module(f"quditswap.{name}")
               for name in ("catbell", "cli", "core", "protocol", "statevec",
                            "swapcalc")}
    modules["quditswap"] = quditswap
    prose = re.sub(r"^```.*?^```", "", README, flags=re.DOTALL | re.MULTILINE)
    checked, missing = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        dotted = re.match(r"(\w+)\.(\w+)", span)
        named = re.match(r"(\w+)\(|(_\w+|[A-Z][A-Z0-9]*_[A-Z0-9_]+)$", span)
        snake = re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", span)
        if dotted:
            if dotted[1] not in modules:
                continue
            found = hasattr(modules[dotted[1]], dotted[2])
        elif named:
            found = any(hasattr(module, named[1] or named[2])
                        for module in modules.values())
        elif snake:
            found = span in named_elsewhere or any(hasattr(module, span)
                                                   for module in modules.values())
        else:
            continue
        checked += 1
        if not found:
            missing.append(span)
    assert checked >= 6
    assert missing == []
