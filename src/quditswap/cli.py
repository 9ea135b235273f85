"""Command-line front end.

Three subcommands:

  verify    rebuild each swap rewrite as its outcome sum on the dense
            engine and report the worst amplitude deviation
  protocol  run secret-sharing rounds, check every recovery identity,
            and tally the key distribution
  collude   exact first-dit posteriors for colluding subsets, with an
            optional exhaustive dense-engine tally, oracle_view_counts

Exit codes: 0 all checks passed, 1 a check failed, 2 usage, cap or I/O error;
over-cap sizes are refused by statevec.checked_size before any work.
`--json PATH` (or `-` for stdout) writes a machine report; identical flags
plus seed reproduce it byte for byte, so no timings go into the JSON. The
report is indented JSON with sorted keys, except that protocol's
"transcripts" (its last key) holds one compact record per line: the
records stream through a temporary spool block by block, and _emit writes
them after the rest of the report, so report memory is flat in --rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .core import validate_dimension
from .protocol import (ENGINES, ProtocolConfig, collusion_counts, oracle_view_counts,
                       round_blocks, round_records)
from .statevec import block_rows, checked_size
from .swapcalc import RULES, verify_swap_block

# bounds the streamed oracle walk's time, not its memory: 2^16 branches take seconds
MAX_ORACLE_BRANCHES = 1 << 16

# protocol draws labels and outcomes, and rewrites rounds, in blocks of
# this many rounds. Its time is flat from 64 rounds up at d=7 n=5; a
# block's field arrays and report lines live together, so peak memory
# grows with the size, not with --rounds.
PROTOCOL_BLOCK_ROUNDS = 1 << 10


def chi_square_survival(x: float, dof: int) -> float:
    """Exact upper tail Q = P(X > x), x > 0, of chi-square with integer dof.

    Q at dof 1 or 2 (Abramowitz & Stegun 26.4.4-5), stepped up by 2 with
    Q(k + 2) = Q(k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1).
    """
    q = math.erfc(math.sqrt(x / 2)) if dof % 2 else math.exp(-x / 2)
    for k in range(dof % 2 or 2, dof, 2):
        q += math.exp(k / 2 * math.log(x / 2) - x / 2 - math.lgamma(k / 2 + 1))
    return q


def chi_square_critical(dof: int, alpha: float) -> float:
    """Upper-tail chi-square critical value, by bisection on the exact tail."""
    lo, hi = 0.0, float(dof)
    while chi_square_survival(hi, dof) > alpha:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if chi_square_survival(mid, dof) > alpha else (lo, mid)
    return (lo + hi) / 2


def _emit(report: dict, json_target: str | None, human_lines: list[str],
          elapsed: float, spool=None) -> int:
    """Print the human table, closed by the verdict and the elapsed time,
    unless JSON goes to stdout; write JSON if asked.

    spool, a text file of record lines joined by ",\n", becomes the list
    under report's last key, "transcripts" (report lacks it, and each of its
    keys sorts before it): it is copied after the indented rest.

    Returns the exit code: 2 when the JSON file cannot be written, else 0
    when the report is ok and 1 when it is not.
    """
    head, tail = json.dumps(report, indent=2, sort_keys=True), "\n"
    if spool is not None:  # drop the closing "\n}", splice the list in
        head, tail = head[:-2] + ',\n  "transcripts": [\n', "\n  ]\n}\n"

    def write(handle):
        handle.write(head)
        if spool is not None:
            spool.seek(0)
            shutil.copyfileobj(spool, handle)
        handle.write(tail)

    if json_target == "-":
        write(sys.stdout)
    else:
        for line in human_lines:
            print(line)
        print(f"{'all checks passed' if report['ok'] else 'CHECKS FAILED'} "
              f"({elapsed:.2f}s)")
        if json_target:
            try:
                with open(json_target, "w", encoding="utf-8") as handle:
                    write(handle)
            except OSError as exc:
                return _usage_fail(f"cannot write --json {json_target}: {exc}")
    return 0 if report["ok"] else 1


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed % (1 << 64)
    return secrets.randbits(64)


def _usage_fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cap_refusal(d: int, qudits: int) -> str | None:
    """checked_size's refusal of d**qudits amplitudes, or None within the cap."""
    try:
        checked_size(d, qudits)
    except ValueError as exc:
        return f"refusing: {exc}"


def _sampled_blocks(rng, d: int, width: int, positions, samples: int,
                    per_block: int):
    """Yield (m, rows) blocks of random label tuples, drawn in the order of
    one tuple then its white-node m (when the rule takes one) per case."""
    for start in range(0, samples, per_block):
        groups: dict = {}
        for _ in range(min(per_block, samples - start)):
            flat = rng.integers(0, d, width)
            m = (None if positions[0] is None
                 else int(rng.integers(2, positions[-1] + 1)))
            groups.setdefault(m, []).append(flat)
        yield from groups.items()


def cmd_verify(args) -> int:
    d, n = args.d, args.n
    rules = RULES if args.rule == "all" else (args.rule,)
    widths = [4 if rule == "bell" else n + 2 for rule in rules]
    if refusal := _cap_refusal(d, max(widths)):
        return _usage_fail(f"{refusal}; lower --d or --n")

    seed = _pick_seed(args)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    checks = []
    per_block = block_rows(d, 4)  # a tuple's outcome sum has d^4 nonzero terms
    for rule, width in zip(rules, widths):
        worst, cases = 0.0, 0
        positions = tuple(range(2, n + 1)) if rule == "white" else (None,)
        if args.samples is None:
            tuples = product(range(d), repeat=width)
            blocks = ((m, block)
                      for block in iter(lambda: list(islice(tuples, per_block)), [])
                      for m in positions)
        else:
            blocks = _sampled_blocks(rng, d, width, positions, args.samples,
                                     per_block)
        for m, block in blocks:  # an int array skips reduce_labels' element check
            deviations = verify_swap_block(rule, d, np.asarray(block), m=m)
            worst = float(np.maximum(worst, deviations.max()))  # NaN stays NaN
            cases += len(deviations)
        checks.append({"rule": rule, "cases": cases, "max_deviation": worst,
                       "tol": args.tol, "pass": worst < args.tol})
    elapsed = time.perf_counter() - start

    ok = all(check["pass"] for check in checks)
    mode = "exhaustive" if args.samples is None else f"samples={args.samples}"
    report = {
        "command": "verify",
        "parameters": {"d": d, "n": n, "rule": args.rule, "mode": mode,
                       "tol": args.tol, "seed": seed},
        "checks": checks,
        "ok": ok,
    }
    lines = [f"verify: d={d} n={n} mode={mode} seed={seed}"]
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(f"  rule {check['rule']:<5} {check['cases']:>6} cases   "
                     f"max deviation {check['max_deviation']:.3e} "
                     f"(tol {check['tol']:.1e})   {status}")
    return _emit(report, args.json, lines, elapsed)


def _random_labels(rng, d: int, n: int):
    """Uniform label source: count -> (cat labels (count, n), Bell label
    pairs (count, n, 2))."""
    return lambda count: (rng.integers(0, d, (count, n)),
                          rng.integers(0, d, (count, n, 2)))


def _load_labels(args, d: int, n: int, rng):
    """Label source for the protocol command, as _random_labels gives one."""
    if args.labels == "random":
        return _random_labels(rng, d, n)
    if args.labels == "zero":
        cat, bells = (0,) * n, ((0, 0),) * n
    else:
        with open(args.labels, encoding="utf-8") as handle:
            data = json.load(handle)
        cat, bells = data["cat_labels"], data["bell_labels"]
        rows = [cat] + (bells if isinstance(bells, list) else [bells])
        if not all(isinstance(row, list) and all(type(x) is int for x in row)
                   for row in rows):
            raise ValueError("labels file must hold lists of JSON integers")
        if len(cat) != n or len(bells) != n or any(len(b) != 2 for b in bells):
            raise ValueError(f"labels file must carry {n} cat labels and "
                             f"{n} Bell label pairs")
        if not all(0 <= x < d for row in rows for x in row):
            raise ValueError(f"labels file holds values outside 0..{d - 1}")
    return lambda count: (np.broadcast_to(cat, (count, n)),
                          np.broadcast_to(bells, (count, n, 2)))


def _protocol_draws(d: int, n: int, rounds: int, rng, next_labels):
    """Yield the protocol command's blocks of PROTOCOL_BLOCK_ROUNDS rounds as
    (cat, bells, outcomes): each block draws its labels, then its outcomes
    (R, n, 2), which either engine forces."""
    for first in range(0, rounds, PROTOCOL_BLOCK_ROUNDS):
        count = min(PROTOCOL_BLOCK_ROUNDS, rounds - first)
        cat, bells = next_labels(count)
        yield cat, bells, rng.integers(0, d, (count, n, 2))


def cmd_protocol(args) -> int:
    d, n = args.d, args.n
    if args.engine == "statevector" and (refusal := _cap_refusal(d, n + 2)):
        return _usage_fail(f"{refusal}; use --engine symbolic")

    seed = _pick_seed(args)
    rng = np.random.default_rng(seed)
    try:
        next_labels = _load_labels(args, d, n, rng)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _usage_fail(f"bad labels source: {exc}")

    # Rounds run as protocol.round_blocks' field arrays (the dense engine
    # splits a block into sub-blocks of statevec.block_rows rounds), which
    # give the verdicts, the key tally and the records; records go to the
    # spool one line each, block by block.
    spooled = args.json and args.rounds
    with tempfile.TemporaryFile("w+", encoding="utf-8") if spooled else nullcontext() as spool:
        start = time.perf_counter()
        key_counts = np.zeros((d, d), dtype=int)
        recoveries, separator = 0, ""
        for block in _protocol_draws(d, n, args.rounds, rng, next_labels):
            for cat, bells, fields in round_blocks(d, n, *block, args.engine):
                ok, records = round_records(d, n, seed, args.engine, cat, bells, fields)
                recoveries += int(np.count_nonzero(ok))
                np.add.at(key_counts, np.divmod(fields[2], d), 1)
                if spool is not None:
                    spool.write(separator + ",\n".join(
                        "    " + json.dumps(record, sort_keys=True) for record in records))
                    separator = ",\n"
        elapsed = time.perf_counter() - start

        success_rate = recoveries / args.rounds if args.rounds else None
        chi = None
        dof = d * d - 1
        if args.rounds >= 5 * d * d:
            expected = args.rounds / (d * d)
            statistic = float(((key_counts - expected) ** 2 / expected).sum())
            critical = chi_square_critical(dof, 0.001)
            chi = {"statistic": statistic, "critical": critical, "dof": dof,
                   "alpha": 0.001, "pass": statistic < critical}

        ok = (success_rate in (None, 1.0)) and (chi is None or chi["pass"])
        report = {
            "command": "protocol",
            "parameters": {"d": d, "n": n, "rounds": args.rounds, "seed": seed,
                           "engine": args.engine, "labels": args.labels},
            "success_rate": success_rate,
            "key_counts": key_counts.tolist(),
            "chi_square": chi,
            "ok": ok,
        }
        if not spooled:
            report["transcripts"] = []
        lines = [f"protocol: d={d} n={n} rounds={args.rounds} "
                 f"engine={args.engine} labels={args.labels} seed={seed}"]
        if args.rounds:
            lines.append(f"  recovery success rate {success_rate:.4f} "
                         f"({recoveries}/{args.rounds})")
            lines.append(f"  key counts: min {key_counts.min()} "
                         f"max {key_counts.max()} over {d * d} values")
            if chi:
                lines.append(f"  key chi-square {chi['statistic']:.2f} vs "
                             f"critical {chi['critical']:.2f} "
                             f"(dof {dof}, alpha 0.001)   "
                             f"{'PASS' if chi['pass'] else 'FAIL'}")
        else:
            lines.append("  no rounds requested")
        return _emit(report, args.json, lines, elapsed, spool)


def cmd_collude(args) -> int:
    d, n = args.d, args.n
    try:
        missing = sorted({int(x) for x in args.missing.split(",") if x.strip()})
    except ValueError:
        return _usage_fail(f"cannot parse --missing {args.missing!r}")
    if not missing:
        return _usage_fail("--missing must name at least one party")
    if not all(2 <= i <= n for i in missing):
        return _usage_fail(f"--missing parties must lie in 2..{n}")
    if args.oracle:
        if refusal := _cap_refusal(d, n + 2):
            return _usage_fail(f"{refusal}; lower --d or --n")
        if (d * d) ** n > MAX_ORACLE_BRANCHES:
            return _usage_fail(f"refusing oracle enumeration: {(d * d) ** n} branches, "
                               f"above the {MAX_ORACLE_BRANCHES} cap; lower --d or --n")
    known = sorted(set(range(2, n + 1)) - set(missing))

    seed = _pick_seed(args)
    rng = np.random.default_rng(seed)
    next_labels = _random_labels(rng, d, n)
    start = time.perf_counter()

    # The protocol command's rounds, as round_blocks' field arrays: a round
    # passes when each first key dit has the same count for the coalition.
    rounds_ok, posterior = True, None
    for block in _protocol_draws(d, n, args.rounds, rng, next_labels):
        for cat, bells, (steps, announced, *_) in round_blocks(d, n, *block):
            counts = collusion_counts(d, cat, bells, steps, announced, known)
            rounds_ok &= bool(np.all(counts == counts[:, :1]))
            posterior = [str(Fraction(c, d ** len(missing))) for c in counts[-1].tolist()]

    oracle = None
    if args.oracle:
        cat, bells = next_labels(1)
        classes = oracle_view_counts(
            ProtocolConfig(d, n, cat[0], bells[0], seed=seed), known).values()
        oracle = {"branches": sum(map(sum, classes)), "view_classes": len(classes),
                  "balanced": all(len(set(firsts)) == 1 for firsts in classes)}
    elapsed = time.perf_counter() - start

    ok = rounds_ok and (oracle is None or oracle["balanced"])
    report = {
        "command": "collude",
        "parameters": {"d": d, "n": n, "missing": missing, "known": known,
                       "rounds": args.rounds, "seed": seed,
                       "oracle": bool(args.oracle)},
        "posterior": posterior,
        "uniform": rounds_ok if args.rounds else None,
        "oracle": oracle,
        "ok": ok,
    }
    lines = [f"collude: d={d} n={n} missing={missing} known={known} seed={seed}"]
    if posterior is None:
        lines.append("  no rounds requested")
    else:
        lines.append(f"  posterior over first key dit: [{', '.join(posterior)}]")
        lines.append(f"  exactly uniform across {args.rounds} random rounds: "
                     f"{'PASS' if rounds_ok else 'FAIL'}")
    if oracle:
        lines.append(f"  oracle: {oracle['branches']} branches in "
                     f"{oracle['view_classes']} view classes, balanced first "
                     f"dit: {'PASS' if oracle['balanced'] else 'FAIL'}")
    return _emit(report, args.json, lines, elapsed)


def _int_type(check):
    """argparse type: int(text) passed through check, which raises ValueError.

    argparse reports the error as a usage line naming the flag, exit 2.
    """
    def parse(text: str) -> int:
        try:
            return check(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _at_least(low: int):
    def check(value: int) -> int:
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return _int_type(check)


_DIMENSION = _int_type(validate_dimension)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditswap",
        description="Qudit entanglement-swapping toolkit: identity "
                    "verification, secret-sharing rounds, collusion analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check swap rewrites against the dense engine")
    p.add_argument("--d", type=_DIMENSION, default=2, help="qudit dimension (2..16)")
    p.add_argument("--n", type=_at_least(3), default=3,
                   help="cat-state size for cat rules (>= 3)")
    p.add_argument("--rule", choices=RULES + ("all",), default="all")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="all label tuples (default)")
    group.add_argument("--samples", type=_at_least(1), default=None,
                       help="random label tuples instead of all of them")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write a machine report to PATH, or - for stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("protocol", help="run secret-sharing rounds")
    p.add_argument("--d", type=_DIMENSION, default=2)
    p.add_argument("--n", type=_at_least(2), default=3, help="party count (>= 2)")
    p.add_argument("--rounds", type=_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--engine", choices=ENGINES, default="symbolic")
    p.add_argument("--labels", default="zero",
                   help="zero, random, or a JSON file with cat_labels/bell_labels")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write transcripts and stats to PATH, or - for stdout")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("collude", help="posterior of the first key dit for a subset")
    p.add_argument("--d", type=_DIMENSION, default=2)
    p.add_argument("--n", type=_at_least(2), default=3)
    p.add_argument("--missing", required=True,
                   help="comma-separated parties (2..n) outside the collusion")
    p.add_argument("--rounds", type=_at_least(0), default=10,
                   help="random rounds to evaluate the posterior on")
    p.add_argument("--oracle", action="store_true",
                   help="exhaustive dense-engine branch confirmation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_collude)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
