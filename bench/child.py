"""Run one quditswap CLI command in this fresh interpreter, time it and gate it.

Usage:
    python3 child.py SIDECAR --setup-only
    python3 child.py SIDECAR ITEMS [--probe | --trace SPANS RUN_ID] -- CLI_ARGS...

SIDECAR receives one JSON object. `ready` is the CLOCK_MONOTONIC reading
once `quditswap.cli` is imported; the parent subtracts its spawn time to get
the set-up time. A set-up-only child adds the numpy and BLAS versions it
loaded and `probe_s`, the median of a burst of host probes (hostprobe.py)
run once it is ready. A command child adds `rc`, its exit code; `wall_s`, the command's
own wall time; `cpu_s` and `peak_rss_mb`, this process's user plus system
CPU and ru_maxrss taken as soon as the command returns; `problems` from the
correctness gate in workloads.py for a command that should do ITEMS items;
and the `sha256` and `bytes` of its --json report. With --trace the command
runs under `tracer.Tracer`: the spans go to SPANS and the sidecar gets the
per-span `layers` totals and the `counters`. With --probe the command runs
under `hostprobe.Probe`, and the sidecar gets `probe_s`, the median probe
time while it ran, and `probes`, their number.

Rusage is read before the report is parsed or the trace reduced, so neither
shows in cpu_s or peak_rss_mb. The parent therefore never loads a report,
and its own RSS, which every child's ru_maxrss starts from, stays small.
The child exits with the command's exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from quditswap.cli import main as cli_main

READY = time.monotonic()


def versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(items: int, options: list[str], cli_args: list[str]) -> dict:
    from hostprobe import Probe
    from tracer import Tracer, layer_totals
    from workloads import gate

    tracer = None
    if "--trace" in options:
        at = options.index("--trace")
        spans_path, run_id = options[at + 1], options[at + 2]
        tracer = Tracer(run_id)
        tracer.install()
    probe = Probe() if "--probe" in options else contextlib.nullcontext()
    start = time.perf_counter()
    with probe:
        try:
            rc = cli_main(cli_args)
        except SystemExit as exc:  # argparse rejects bad input this way
            rc = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {"rc": rc, "wall_s": wall_s,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    if isinstance(probe, Probe) and probe.samples:
        record.update(probe_s=statistics.median(probe.samples),
                      probes=len(probe.samples))

    report_path = Path(cli_args[cli_args.index("--json") + 1])
    try:
        data = report_path.read_bytes()
        report = json.loads(data)
    except (OSError, ValueError):
        data, report = b"", None
    report_path.unlink(missing_ok=True)
    record["problems"] = gate(items, report)  # the parent adds a nonzero exit code
    record["sha256"] = hashlib.sha256(data).hexdigest()
    record["bytes"] = len(data)
    if tracer is not None:
        tracer.dump(spans_path)
        record["layers"] = layer_totals(tracer.spans)
        record["counters"] = dict(tracer.counters)
    return record


def main(argv: list[str]) -> int:
    sidecar = argv[0]
    if argv[1:] == ["--setup-only"]:
        from hostprobe import burst

        record = {"probe_s": statistics.median(burst()), "versions": versions(),
                  "rc": 0}
    else:
        split = argv.index("--")
        record = run(int(argv[1]), argv[2:split], argv[split + 1:])
    record["ready"] = READY
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
