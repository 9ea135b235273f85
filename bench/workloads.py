"""The four benchmark workloads and the correctness gate every run must pass.

Each workload is one `quditswap` CLI command. The benchmark adds `--seed`
and `--json`; the seed is the workload's only varying input. Why each
workload is here is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments, without --seed and --json
    item: str              # unit of work behind work_per_s
    items: int             # exact item count a correct run reports


WORKLOADS = {w.name: w for w in (
    Workload("protocol-symbolic",
             ("protocol", "--d", "7", "--n", "5", "--rounds", "4000",
              "--engine", "symbolic", "--labels", "random"),
             item="round", items=4_000),
    Workload("protocol-dense",
             ("protocol", "--d", "3", "--n", "4", "--rounds", "100",
              "--engine", "statevector", "--labels", "random"),
             item="round", items=100),
    Workload("verify-exhaustive",
             ("verify", "--d", "3", "--n", "4", "--rule", "all"),
             item="case", items=3**4 + 3**6 + 3 * 3**6),
    Workload("collude-oracle",
             ("collude", "--d", "2", "--n", "7", "--missing", "3", "--oracle"),
             item="branch", items=(2 * 2) ** 7),
)}


def _check_protocol(report: dict, items: int) -> list[str]:
    problems = []
    rounds = report["parameters"]["rounds"]
    transcripts = report["transcripts"]
    if rounds != items or len(transcripts) != items:
        problems.append(f"expected {items} rounds, report has {rounds} "
                        f"with {len(transcripts)} transcripts")
    if report["success_rate"] != 1.0:
        problems.append(f"recovery success_rate {report['success_rate']}")
    if not all(t["ok"] for t in transcripts):
        problems.append("a transcript failed recovery")
    chi = report["chi_square"]
    if chi is None:
        problems.append("no chi-square block")
    elif chi["pass"] is not True:
        problems.append(f"chi-square {chi['statistic']} >= {chi['critical']}")
    return problems


def _check_verify(report: dict, items: int) -> list[str]:
    params = report["parameters"]
    d, n = params["d"], params["n"]
    expected = {"bell": d**4, "black": d ** (n + 2), "white": (n - 1) * d ** (n + 2)}
    problems = []
    if params["mode"] != "exhaustive":
        problems.append(f"mode {params['mode']}, not exhaustive")
    checks = report["checks"]
    if sorted(c["rule"] for c in checks) != sorted(expected):
        problems.append(f"rules {[c['rule'] for c in checks]}")
    for check in checks:
        want = expected.get(check["rule"])
        if check["cases"] != want:
            problems.append(f"rule {check['rule']}: {check['cases']} cases, "
                            f"expected {want}")
        if not check["max_deviation"] < check["tol"]:
            problems.append(f"rule {check['rule']}: max_deviation "
                            f"{check['max_deviation']} not under {check['tol']}")
    total = sum(c["cases"] for c in checks)
    if total != items:
        problems.append(f"{total} cases, expected {items}")
    return problems


def _check_collude(report: dict, items: int) -> list[str]:
    problems = []
    oracle = report["oracle"]
    if oracle is None:
        return ["no oracle block"]
    if oracle["branches"] != items:
        problems.append(f"{oracle['branches']} branches, expected {items}")
    if oracle["balanced"] is not True:
        problems.append("oracle first dit not balanced")
    if report["uniform"] is not True:
        problems.append("posterior not uniform")
    return problems


CHECKS = {"protocol": _check_protocol, "verify": _check_verify,
          "collude": _check_collude}


def gate(items: int, report: dict | None) -> list[str]:
    """Reasons a --json report fails the correctness gate; empty when it passes.

    The caller also requires exit code 0. Transcript bytes and the RNG
    stream are deliberately not pinned: only exact item counts and the
    report's own checks are.
    """
    if report is None:
        return ["no --json report"]
    problems = []
    if report.get("ok") is not True:
        problems.append("report ok is not true")
    check = CHECKS.get(report.get("command"))
    if check is None:
        return problems + [f"unknown command {report.get('command')!r}"]
    try:
        problems += check(report, items)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
