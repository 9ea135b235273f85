"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs each workload's command at a tiny size through the same harness as
run.py and checks that:
  * every end-to-end and per-layer metric named in BENCHMARK.json is
    emitted with its unit, and each per-layer metric is nonzero on at
    least one workload, so a misspelt name cannot pass as a layer that
    reads 0;
  * counts (calls, created, amps, bytes) repeat exactly across two traced
    runs with the same seed, and traced and untraced runs write identical
    --json reports;
  * a command the CLI rejects (--d 17 exits 2) counts in fail_ratio and
    leaves a replay witness.
Exits 0 when every check holds.
"""

from __future__ import annotations

import sys

import run
from workloads import Workload

TINY = (
    Workload("tiny-protocol-symbolic",
             ("protocol", "--d", "3", "--n", "3", "--rounds", "60",
              "--engine", "symbolic", "--labels", "random"),
             item="round", items=60),
    Workload("tiny-protocol-dense",
             ("protocol", "--d", "2", "--n", "2", "--rounds", "30",
              "--engine", "statevector", "--labels", "random"),
             item="round", items=30),
    Workload("tiny-verify-exhaustive",
             ("verify", "--d", "2", "--n", "3", "--rule", "all"),
             item="case", items=2**4 + 2**5 + 2 * 2**5),
    Workload("tiny-collude-oracle",
             ("collude", "--d", "2", "--n", "3", "--missing", "3", "--oracle"),
             item="branch", items=(2 * 2) ** 3),
)
REJECTED = Workload("rejected-d17", ("protocol", "--d", "17"),
                    item="round", items=1)
SEED = 5
SECONDS = 0.1  # one command per run
COUNT_UNITS = ("count", "amps", "B")


def main() -> int:
    want_e2e, want_layer = run.declared_metrics()
    failures = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    nonzero = set()
    for workload in TINY:
        plain = run.measure(workload, SEED, SECONDS, False, want_e2e)
        check(plain["correct"] and plain["fail_ratio"] == 0,
              f"{workload.name}: untraced run failed {plain['samples']}")
        emitted = {k: m["unit"] for k, m in plain["metrics"].items()}
        check(emitted == want_e2e, f"{workload.name}: emitted {emitted}")

        first, second = (run.measure(workload, SEED, SECONDS, True, want_layer)
                         for _ in range(2))
        for traced in (first, second):
            check(traced["correct"],
                  f"{workload.name}: traced run failed {traced['problems']} "
                  f"{[s['problems'] for s in traced['samples']]}")
            emitted = {k: m["unit"] for k, m in traced["metrics"].items()}
            check(emitted == want_layer, f"{workload.name}: per-layer units differ")
        for name, metric in first["metrics"].items():
            if metric["median"]:
                nonzero.add(name)
            if metric["unit"] in run.COUNT_UNITS:
                again = second["metrics"][name]["median"]
                check(metric["median"] == again,
                      f"{workload.name}: {name} {metric['median']} then {again}")
    check(nonzero == set(want_layer),
          f"per-layer metrics zero on every workload: {set(want_layer) - nonzero}")

    rejected = run.measure(REJECTED, SEED, SECONDS, False, want_e2e)
    witnesses = [s for s in rejected["samples"] if s["problems"]]
    check(not rejected["correct"] and rejected["fail_ratio"] > 0
          and len(witnesses) == 1,
          f"rejected command: {rejected['failed']} of {rejected['attempted']} failed")
    for witness in witnesses:
        check(witness["rc"] == 2 and "--seed" in witness["argv"]
              and "dimension" in witness["stderr_tail"],
              f"rejected command witness {witness}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
