"""quditswap benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # every workload, one table, gated
    python3 bench/run.py --workload protocol-dense --seed 3 --seconds 20
    python3 bench/run.py --workload collude-oracle --trace 1   # per-layer run

Each command runs in its own child interpreter (bench/child.py), one at a
time, with BLAS pinned to one thread. A run repeats the workload with the
same seed until --seconds is spent, with a set-up-only child after each
workload child. --trace 0 reports the end-to-end metrics: medians over the
run of each child's times, scaled by the host probe that ran in that child
(hostprobe.py) to the speed of a reference host. --trace 1 alternates
untraced and traced children, reports the per-layer metrics from the
traced ones, and requires both to write byte-identical --json reports.
Every child must pass the correctness gate in workloads.py; a failure logs
a replay witness to stderr. The metric names and units are the ones
BENCHMARK.json declares.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A full record (environment, every sample,
unscaled medians, witnesses) goes to bench/out/. The exit code is 1 when any
gate fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostprobe import PROBE_REF_S
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0    # hard stop for a run of the default length, children included
CHILD_LIMIT_S = 60.0   # time the last child of a longer run still gets
COUNT_UNITS = ("count", "amps", "B")  # per-layer metrics that must repeat exactly


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def spawn(scratch: Path, tag: str, child_args: list[str], argv: list[str],
          deadline: float) -> dict:
    """One child interpreter, killed past the deadline; returns its sample.

    The sample is the child's sidecar plus its exit code, its set-up time,
    the argv that replays it and the problems that fail it. A failure prints
    a replay witness to stderr.
    """
    sidecar = scratch / f"{tag}.sidecar.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), *child_args]
    with open(scratch / f"{tag}.stderr", "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            rc = proc.wait(timeout=max(0.0, deadline - start))
        except BaseException as exc:
            proc.kill()
            rc = proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
        err.seek(0)
        stderr_tail = err.read()[-2000:].decode(errors="replace")
    try:
        record = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    problems = [f"exit code {rc}"] if rc else []
    if "ready" not in record:
        problems.append("child wrote no result")
    sample = dict(record, rc=rc, argv=argv, stderr_tail=stderr_tail,
                  setup_s=record["ready"] - start if "ready" in record else None,
                  problems=problems + record.get("problems", []))
    if sample["problems"]:
        print(f"FAILED {tag}: {'; '.join(sample['problems'])}\n"
              f"  replay: PYTHONPATH=src {' '.join(argv)}\n"
              f"  exit code: {rc}\n"
              f"  stderr tail:\n{stderr_tail}", file=sys.stderr)
    return sample


def setup_only(scratch: Path, tag: str, deadline: float) -> dict:
    """A child that only imports quditswap.cli and reports library versions."""
    return spawn(scratch, tag, ["--setup-only"],
                 ["python3", "-c", "'import quditswap.cli'"], deadline)


def run_command(workload: Workload, seed: int, scratch: Path, tag: str,
                deadline: float, trace_id: str | None = None,
                probe: bool = False) -> dict:
    """Run the workload once in a child that gates its report.

    With probe the child times host probes while the command runs. With
    trace_id the child runs traced: its per-span totals land in
    sample["layers"] and its counters in sample["counters"], and the latest
    raw spans are kept in bench/out/.
    """
    spans_path = scratch / f"{tag}.spans.json"
    cli_args = [*workload.args, "--seed", str(seed),
                "--json", str(scratch / f"{tag}.report.json")]
    if trace_id is not None:
        options = ["--trace", str(spans_path), trace_id]
    else:
        options = ["--probe"] if probe else []
    replay = [*cli_args[:-1], "report.json"]  # the scratch directory goes
    sample = spawn(scratch, f"{workload.name}-{tag}",
                   [str(workload.items), *options, "--", *cli_args],
                   ["python3", "-m", "quditswap.cli", *replay], deadline)
    if trace_id is not None and spans_path.exists():
        shutil.copyfile(spans_path, OUT / f"{workload.name}-seed{seed}.spans.json")
    return sample


def summary(values: list[float], pick=statistics.median) -> dict:
    """The reported value, by default the median, with median, quartiles as
    statistics.quantiles gives them, extremes and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": pick(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def end_to_end_metrics(workload: Workload, units: dict[str, str],
                       setups: list[dict], samples: list[dict]) -> dict:
    """Medians over the run of the passing children's host-scaled values.

    A shared host changes speed by up to 1.7x, in phases that can cover a
    whole run (README.md has the figures). So each child's times are divided
    by its host factor, its median probe time over PROBE_REF_S, and its rate
    is multiplied by it. setup_s comes from the set-up-only children, the
    rest from the workload children. Each metric also keeps raw_median, its
    median before scaling.
    """
    def slow(s: dict) -> float:  # above 1 on a host slower than the reference
        return s["probe_s"] / PROBE_REF_S

    setups = [s for s in setups if not s["problems"]]
    timed = [s for s in samples if not s["problems"]]
    series = {  # (scaled, unscaled) per child
        "setup_s": [(s["setup_s"] / slow(s), s["setup_s"]) for s in setups],
        "wall_s": [(s["wall_s"] / slow(s), s["wall_s"]) for s in timed],
        "work_per_s": [(workload.items / s["wall_s"] * slow(s),
                        workload.items / s["wall_s"]) for s in timed],
        "cpu_s": [(s["cpu_s"] / slow(s), s["cpu_s"]) for s in timed],
        "peak_rss_mb": [(s["peak_rss_mb"], s["peak_rss_mb"]) for s in timed]}
    metrics = {}
    for name, unit in units.items():
        if series.get(name):
            scaled, raw = zip(*series[name])
            metrics[name] = dict(summary(list(scaled)), unit=unit,
                                 raw_median=statistics.median(raw))
    return metrics


def layer_values(workload: Workload, sample: dict) -> dict[str, float]:
    """Every per-layer quantity of one traced child, by metric name."""
    layers = sample["layers"]
    values = dict(sample["counters"])
    values.update({
        "cli.report_bytes": sample["bytes"],
        "cli.self_s": layers.get("cli.command", {}).get("self_s", 0.0),
        "cli.emit_s": layers.get("cli.emit", {}).get("total_s", 0.0)})
    for name, entry in layers.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.per_item"] = entry["self_s"] / workload.items * 1e6
    return values


def per_layer_metrics(workload: Workload, units: dict[str, str],
                      traced: list[dict], untraced: list[dict]
                      ) -> tuple[dict, list[str]]:
    """Per-layer metrics from passing traced children; counts must repeat.

    A layer the workload never calls reads 0.
    """
    traced = [s for s in traced if not s["problems"]]
    untraced = [s for s in untraced if not s["problems"]]
    if not traced or not untraced:
        return {}, ["no traced and untraced child pair passed"]
    per_sample = [layer_values(workload, s) for s in traced]
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in untraced))
    metrics, problems = {}, []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            series = [overhead]
        else:
            series = [values.get(name, 0) for values in per_sample]
        count = unit in COUNT_UNITS
        if count and len(set(series)) > 1:
            problems.append(f"{name} differs between traced runs of one seed: "
                            f"{sorted(set(series))}")
        metrics[name] = dict(summary(series, (lambda v: v[0]) if count
                                     else statistics.median), unit=unit)
    return metrics, problems


def environment(versions: dict | None) -> dict:
    """The machine and software a record was measured on.

    numpy and BLAS versions come from a child: importing numpy here would
    raise this process's RSS, which every later child inherits.
    """
    caches = {}
    try:
        listing = subprocess.run(["getconf", "-a"], capture_output=True,
                                 text=True, check=True).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(" ")
            if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                       "LEVEL3_CACHE_SIZE") and value.strip():
                caches[key] = int(value)
    except (OSError, subprocess.CalledProcessError):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"python": platform.python_version(), **(versions or {}),
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "caches_bytes": caches, "git_sha": sha}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            units: dict[str, str]) -> dict:
    """One benchmark run of one workload; returns the full record.

    units are the metric units to report: end-to-end ones for an untraced
    run, per-layer ones for a traced run.
    """
    start = time.monotonic()
    deadline = start + seconds
    hard_stop = start + max(RUN_LIMIT_S, seconds + CHILD_LIMIT_S)
    loadavg_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    samples, traced, setups = [], [], []
    try:
        warmup = setup_only(scratch, "warmup", hard_stop)
        longest = 0.0
        while not samples or time.monotonic() + longest < deadline:
            began = time.monotonic()
            rep = len(samples)
            sample = run_command(workload, seed, scratch, f"rep{rep}", hard_stop,
                                 probe=not trace)
            samples.append(sample)
            if trace:
                twin = run_command(workload, seed, scratch, f"traced{rep}",
                                   hard_stop,
                                   trace_id=f"{workload.name}/seed{seed}/rep{rep}")
                if twin.get("sha256") != sample.get("sha256"):
                    twin["problems"].append("traced --json report differs from untraced")
                traced.append(twin)
            else:  # sample set-up across the whole run, not in one burst
                setups.append(setup_only(scratch, f"setup{rep}", hard_stop))
            longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = [warmup] + samples + traced + setups
    failed = sum(bool(s["problems"]) for s in everything)
    if trace:
        metrics, problems = per_layer_metrics(workload, units, traced, samples)
    else:
        metrics, problems = end_to_end_metrics(workload, units, setups, samples), []
    env = environment(warmup.get("versions"))
    env.update(loadavg_start=loadavg_start, loadavg_end=os.getloadavg())
    for sample in everything:
        if not sample["problems"]:
            del sample["stderr_tail"]
    return {"workload": workload.name, "item": workload.item,
            "items": workload.items, "seed": seed, "seconds": seconds,
            "trace": int(trace), "environment": env,
            "correct": failed == 0 and not problems, "attempted": len(everything),
            "failed": failed, "fail_ratio": failed / len(everything),
            "problems": problems, "metrics": metrics, "samples": everything}


def describe(record: dict) -> list[str]:
    lines = [f"{record['workload']}: seed {record['seed']}, "
             f"{record['attempted']} children, fail_ratio {record['fail_ratio']:.3f} "
             f"({record['failed']}/{record['attempted']}), "
             f"work item = {record['item']} ({record['items']} per run)"]
    for name, m in record["metrics"].items():
        raw = "" if "raw_median" not in m else f", unscaled median {m['raw_median']:.6g}"
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<8} "
                     f"n={m['n']}  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
                     f"min {m['min']:.6g}, max {m['max']:.6g}{raw}]")
    for problem in record["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return lines


def result_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for record in records:
        for name, m in record["metrics"].items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quditswap" / "cli.py").is_file():
        print(f"error: no quditswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), per_layer if args.trace else end_to_end)
        records.append(record)
        OUT.joinpath(f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print("\n".join(describe(record)))
    print("environment: " + json.dumps(records[0]["environment"]))
    result = result_line(records, prefix=len(records) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
