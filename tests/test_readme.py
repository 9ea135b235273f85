"""The README's code blocks run against the code they describe."""

import importlib
import json
import re
import shlex
from pathlib import Path

import quditswap
from quditswap.cli import build_parser
from quditswap.protocol import ProtocolConfig, run_round, transcript_to_json_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def blocks(language):
    return [body for lang, body in BLOCKS if lang == language]


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


def test_backticked_names_exist():
    # `name(`, and a bare private or constant name (`_NAME`, `MAX_NAME`), must
    # be defined in some quditswap module and `module.name` in that module;
    # dotted names outside the package (`rng.random()`) are skipped
    modules = {name: importlib.import_module(f"quditswap.{name}")
               for name in ("catbell", "cli", "core", "protocol", "statevec",
                            "swapcalc")}
    modules["quditswap"] = quditswap
    prose = re.sub(r"^```.*?^```", "", README, flags=re.DOTALL | re.MULTILINE)
    checked, missing = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        dotted = re.match(r"(\w+)\.(\w+)", span)
        named = re.match(r"(\w+)\(|(_\w+|[A-Z][A-Z0-9]*_[A-Z0-9_]+)$", span)
        if dotted:
            if dotted[1] not in modules:
                continue
            found = hasattr(modules[dotted[1]], dotted[2])
        elif named:
            found = any(hasattr(module, named[1] or named[2])
                        for module in modules.values())
        else:
            continue
        checked += 1
        if not found:
            missing.append(span)
    assert checked >= 6
    assert missing == []
