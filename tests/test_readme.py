"""The README's code blocks run against the code they describe."""

import json
import re
import shlex
from pathlib import Path

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
