"""Command-line front end.

Three subcommands:

  verify    rebuild each swap rewrite as its outcome sum on the dense
            engine and report the worst amplitude deviation, on every
            label tuple (drawing nothing: the seed is only reported) or on
            --samples tuples drawn from the seed's dits
  protocol  run secret-sharing rounds, check every recovery identity,
            and tally the key distribution
  collude   exact first-dit posteriors for colluding subsets, with an
            optional exhaustive dense-engine tally, the arrays of
            oracle_view_tally

Every seeded draw, a label, an outcome (k, l) or a sampled tuple and its m,
comes from _draws: exactly uniform dits read from random.Random(seed)'s
bytes, so no command loads numpy.random.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage, cap or I/O error;
over-cap sizes are refused by statevec.checked_size before any work.
`--json PATH` (or `-` for stdout) writes a machine report; identical flags
plus seed reproduce it byte for byte, so no timings go into the JSON. The
report is indented JSON with sorted keys, except that protocol's
"transcripts" (its last key) holds one compact record per line: the
records stream as bytes through a temporary binary spool block by block,
and _emit copies them after the rest of the report, so report memory is
flat in --rounds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import random
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from .core import base_digits, floor_mod, validate_dimension
from .protocol import (ENGINES, ProtocolConfig, collusion_counts, oracle_view_tally,
                       recover_rounds, round_blocks, round_records)
from .statevec import BLOCK_AMPLITUDES, block_rows, checked_size
from .swapcalc import RULES, verify_swap_block

# bounds the oracle's leaf pass, whose integer work grows with the branch
# count; its dense work grows with d^n. At 2^18 branches, on a 2-CPU host,
# collude --oracle takes about 0.13 s at d=2 n=9, all but 0.01 s of it in
# the leaf pass, and 0.09 s at d=8 n=3, 0.05 s of it in the class pass
# (medians of eight fresh-process runs each)
MAX_ORACLE_BRANCHES = 1 << 18

# glibc's mallopt parameters, from its malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# protocol draws labels and outcomes, and rewrites rounds, in blocks of
# this many rounds. Its time is flat from 64 rounds up at d=7 n=5; a
# block's field arrays and report lines live together, so peak memory
# grows with the size, not with --rounds. verify --samples draws its
# tuples in blocks of as many cases.
PROTOCOL_BLOCK_ROUNDS = 1 << 10


def chi_square_tail(dof: int):
    """The exact upper tail x -> Q = P(X > x), x > 0, of chi-square with
    integer dof.

    Q at dof 1 or 2 (Abramowitz & Stegun 26.4.4-5), stepped up by 2 with
    Q(k + 2) = Q(k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1): each
    lgamma(k/2 + 1) is taken once per dof, x/2 and log(x/2) once per x.
    """
    steps = [(k / 2, math.lgamma(k / 2 + 1)) for k in range(dof % 2 or 2, dof, 2)]

    def tail(x: float) -> float:
        half = x / 2
        q = math.erfc(math.sqrt(half)) if dof % 2 else math.exp(-half)
        if steps:
            log_half = math.log(half)
            for power, log_gamma in steps:
                q += math.exp(power * log_half - half - log_gamma)
        return q

    return tail


def chi_square_critical(dof: int, alpha: float) -> float:
    """Upper-tail chi-square critical value, by bisection on the exact tail
    until the midpoint is an end, as no float lies between them."""
    tail, lo, hi = chi_square_tail(dof), 0.0, float(dof)
    while tail(hi) > alpha:
        lo, hi = hi, 2 * hi
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
    return (lo + hi) / 2


def _emit(report: dict, json_target: str | None, human_lines: list[str],
          elapsed: float, spool=None) -> int:
    """Print the human table, closed by the verdict and the elapsed time,
    unless JSON goes to stdout; write JSON if asked.

    spool, a binary file of ASCII records each led by ",\n    ", becomes
    the list under report's last key, "transcripts" (report lacks it, and
    each of its keys sorts before it): its bytes are copied after the
    indented rest. The report goes out as bytes, to a file opened "wb" or,
    for "-", to sys.stdout's buffer once sys.stdout is flushed.

    Returns the exit code: 2 when the JSON file cannot be written, else 0
    when the report is ok and 1 when it is not.
    """
    head, tail = json.dumps(report, indent=2, sort_keys=True), "\n"
    if spool is not None:  # drop the closing "\n}", splice the list in
        head, tail = head[:-2] + ',\n  "transcripts": [', "\n  ]\n}\n"

    def write(handle):
        handle.write(head.encode())
        if spool is not None:
            spool.seek(1)  # past the first record's comma
            shutil.copyfileobj(spool, handle)
        handle.write(tail.encode())

    if json_target == "-":
        sys.stdout.flush()
        write(sys.stdout.buffer)
    else:
        for line in human_lines:
            print(line)
        print(f"{'all checks passed' if report['ok'] else 'CHECKS FAILED'} "
              f"({elapsed:.2f}s)")
        if json_target:
            try:
                with open(json_target, "wb") as handle:
                    write(handle)
            except OSError as exc:
                return _usage_fail(f"cannot write --json {json_target}: {exc}")
    return 0 if report["ok"] else 1


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed % (1 << 64)
    return random.SystemRandom().getrandbits(64)


def _draws(seed: int):
    """The commands' one seeded source: draw(high, shape), an int array of
    that shape uniform on 0..high-1, for high in 2..256 (else ValueError).

    draw reads random.Random(seed)'s bytes as one stream, in order: it
    rejects each byte at or above 256 - 256 % high, the largest multiple of
    high, and reduces the rest % high, so every dit is exactly uniform and
    the seed fixes them all. It reads whole 32-bit words, as randbytes drops
    the unused bits of a partial one, and keeps their unread bytes for the
    next dits, so the stream does not depend on how the draws are shaped.
    """
    randbytes, spare = random.Random(seed).randbytes, b""

    def draw(high: int, shape):
        nonlocal spare
        if not 2 <= high <= 256:
            raise ValueError(f"draw needs high in 2..256, got {high}")
        out = np.empty(shape, dtype=int)
        flat, filled = out.reshape(-1), 0
        while filled < flat.size:
            want = flat.size - filled
            spare += randbytes((want - len(spare) + 3) // 4 * 4)  # spare < 4 bytes
            chunk, spare = np.frombuffer(spare[:want], dtype=np.uint8), spare[want:]
            kept = chunk[chunk < 256 - 256 % high]
            flat[filled:filled + len(kept)] = kept
            filled += len(kept)
        return floor_mod(out, high)
    return draw


def _usage_fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cap_refusal(d: int, qudits: int) -> str | None:
    """checked_size's refusal of d**qudits amplitudes, or None within the cap."""
    try:
        checked_size(d, qudits)
    except ValueError as exc:
        return f"refusing: {exc}"


def _sampled_blocks(draw, d: int, width: int, positions, samples: int,
                    per_block: int):
    """Yield (m, rows) blocks of at most per_block random label tuples.

    Cases are drawn in blocks of PROTOCOL_BLOCK_ROUNDS: the block's tuples
    (count, width), then, when the rule takes one, each tuple's white-node
    m (count,) from positions. The block's rows go out grouped by m, in
    order of m, so the draws do not depend on per_block.
    """
    for start in range(0, samples, PROTOCOL_BLOCK_ROUNDS):
        rows = draw(d, (min(PROTOCOL_BLOCK_ROUNDS, samples - start), width))
        if positions[0] is None:
            groups = [(None, rows)]
        else:
            ms = positions[0] + draw(len(positions), (len(rows),))
            groups = [(int(m), rows[ms == m]) for m in np.unique(ms)]
        for m, group in groups:
            for first in range(0, len(group), per_block):
                yield m, group[first:first + per_block]


def cmd_verify(args) -> int:
    d, n = args.d, args.n
    rules = RULES if args.rule == "all" else (args.rule,)
    widths = [4 if rule == "bell" else n + 2 for rule in rules]
    if refusal := _cap_refusal(d, max(widths)):
        return _usage_fail(f"{refusal}; lower --d or --n")

    seed = _pick_seed(args)
    start = time.perf_counter()
    checks, draw = [], _draws(seed)  # an exhaustive run draws nothing
    per_block = block_rows(d, 4)  # a tuple's outcome sum has d^4 nonzero terms
    for rule, width in zip(rules, widths):
        worst, cases = 0.0, 0
        positions = tuple(range(2, n + 1)) if rule == "white" else (None,)
        if args.samples is None:  # tuple i is the width base-d digits of i
            size = d ** width
            blocks = ((m, base_digits(np.arange(first, min(first + per_block, size)),
                                      d, width))
                      for first in range(0, size, per_block) for m in positions)
        else:
            blocks = _sampled_blocks(draw, d, width, positions, args.samples,
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


def _random_labels(draw, d: int, n: int):
    """Uniform label source: count -> (cat labels (count, n), Bell label
    pairs (count, n, 2))."""
    return lambda count: (draw(d, (count, n)), draw(d, (count, n, 2)))


def _load_labels(args, d: int, n: int, draw):
    """Label source for the protocol command, as _random_labels gives one."""
    if args.labels == "random":
        return _random_labels(draw, d, n)
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


def _protocol_draws(d: int, n: int, rounds: int, draw, next_labels):
    """Yield the protocol command's blocks of PROTOCOL_BLOCK_ROUNDS rounds as
    (cat, bells, outcomes): each block draws its labels, then its outcomes
    (R, n, 2), which either engine forces."""
    for first in range(0, rounds, PROTOCOL_BLOCK_ROUNDS):
        count = min(PROTOCOL_BLOCK_ROUNDS, rounds - first)
        cat, bells = next_labels(count)
        yield cat, bells, draw(d, (count, n, 2))


def cmd_protocol(args) -> int:
    d, n = args.d, args.n
    if args.engine == "statevector" and (refusal := _cap_refusal(d, n + 2)):
        return _usage_fail(f"{refusal}; use --engine symbolic")

    seed = _pick_seed(args)
    draw = _draws(seed)
    try:
        next_labels = _load_labels(args, d, n, draw)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _usage_fail(f"bad labels source: {exc}")

    # Rounds run as protocol.round_blocks' field arrays (the dense engine
    # splits a block into sub-blocks of statevec.block_rows rounds), which
    # give the verdicts, the key tally and the records; records go to the
    # spool as round_records' bytes, chunk by chunk.
    spooled = args.json and args.rounds
    with tempfile.TemporaryFile("w+b") if spooled else nullcontext() as spool:
        start = time.perf_counter()
        key_counts = np.zeros((d, d), dtype=int)
        recoveries = 0
        for block in _protocol_draws(d, n, args.rounds, draw, next_labels):
            for cat, bells, fields in round_blocks(d, n, *block, args.engine):
                ok, chunks = round_records(d, n, seed, args.engine, cat, bells, fields)
                recoveries += int(np.count_nonzero(ok))
                key_counts += np.bincount(fields[2], minlength=d * d).reshape(d, d)
                if spool is not None:
                    spool.writelines(chunks)
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
    draw = _draws(seed)
    next_labels = _random_labels(draw, d, n)
    start = time.perf_counter()

    # The protocol command's rounds, as round_blocks' field arrays: a round
    # passes when it satisfies every recovery identity and the announcement
    # (recover_rounds' ok, which collusion_counts' convolution assumes) and
    # each first key dit has the same count for the coalition.
    rounds_ok, posterior = True, None
    for block in _protocol_draws(d, n, args.rounds, draw, next_labels):
        for cat, bells, (steps, announced, key, finals, _) in round_blocks(d, n, *block):
            counts = collusion_counts(d, cat, bells, steps, announced, known)
            ok = recover_rounds(d, cat, bells, steps, announced, key, finals)[2]
            rounds_ok &= bool(np.all(ok) and np.all(counts == counts[:, :1]))
            posterior = [str(Fraction(c, d ** len(missing))) for c in counts[-1].tolist()]

    oracle = None
    if args.oracle:
        cat, bells = next_labels(1)
        config = ProtocolConfig(d, n, cat[0], bells[0], seed=seed)
        _, counts = oracle_view_tally(config, known)
        oracle = {"branches": int(counts.sum()), "view_classes": len(counts),
                  "balanced": bool(np.all(counts == counts[:, :1]))}
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
        lines.append(f"  recovery identities hold and posterior exactly uniform "
                     f"across {args.rounds} random rounds: "
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


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float above 0, else exit 2."""
    if not 0 < (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


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
    p.add_argument("--tol", type=_tolerance, default=1e-9)
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
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write a machine report to PATH, or - for stdout")
    p.set_defaults(func=cmd_collude)
    return parser


def _keep_heap() -> None:
    """Keep verify's, the records' and the symbolic blocks' arrays in the heap.

    glibc maps each array over its mmap threshold afresh, and trims free
    heap top over its trim threshold, so each such block faulted its arrays
    of about BLOCK_AMPLITUDES complex amplitudes (256 KiB, over the 128 KiB
    default) back in. Setting both turns glibc's dynamic threshold off:
    arrays up to 128 blocks (32 MiB, glibc's 64-bit ceiling) come from the
    heap, and up to 256 blocks of free heap top stay mapped. The trim
    threshold is set only once the mmap one holds; without glibc's mallopt,
    nothing is. main calls it, so importing the library leaves the process's
    allocator as it was.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    block = BLOCK_AMPLITUDES * np.dtype(complex).itemsize
    if mallopt(_M_MMAP_THRESHOLD, 128 * block):
        mallopt(_M_TRIM_THRESHOLD, 256 * block)


def main(argv=None) -> int:
    _keep_heap()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
