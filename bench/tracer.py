"""Spans and counters at the quditswap layer boundaries, installed from outside.

Nothing in the package knows about tracing. `Tracer.install` wraps the
public functions listed below and rebinds each wrapper under every name that
held the original in any loaded `quditswap` module, because the package
imports functions by name (`from .core import validate_dimension`) and a
rebind in the defining module alone would miss those copies.

Spanned functions record (run id, span id, parent id, name, start ns, end ns)
in memory; `Tracer.dump` writes them out once the command has finished.
The `core` helpers run in microseconds, so they get call counters instead of
spans. Dataclass constructors are counted through `__post_init__`.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter

SPANNED = {
    "swapcalc": ("bell_measure", "to_statevector", "verify_swap_identity"),
    "catbell": ("cat_state",),
    "statevec": ("project_onto", "tensor", "permute_to", "inner_product"),
    "protocol": ("run_round", "initial_state", "transcript_to_json_dict",
                 "enumerate_oracle_branches", "collusion_posterior"),
}
# The subcommand bodies share one span name, so "cli.command" self time is
# the command's own work: tallies, chi-square and consistency checks.
CLI_SPANS = {"cmd_verify": "cli.command", "cmd_protocol": "cli.command",
             "cmd_collude": "cli.command", "_emit": "cli.emit"}
COUNTED = {"core": ("validate_dimension", "zeta", "phase_exponent")}
CREATED = {"swapcalc": ("CatFragment", "Register"),
           "statevec": ("StateVector",),
           "protocol": ("ProtocolConfig",)}

AMPLITUDE_BYTES = 16  # one complex128


def _size(state) -> int:
    return state.amps.size


def _statevec_traffic(name, args, result) -> dict[str, int]:
    """Amplitudes a dense primitive reads and writes, derived from its operands.

    These are computed from array sizes, not measured: bytes_computed is
    16 B times (input amplitudes + output amplitudes).
    """
    if name == "project_onto":
        state, reference = args[0], args[1]
        amps_in = _size(state)
        out = amps_in // _size(reference)
        return {"statevec.project_onto.amps_in": amps_in,
                "statevec.bytes_computed":
                    AMPLITUDE_BYTES * (amps_in + _size(reference) + out)}
    if name == "tensor":
        out = _size(result)
        return {"statevec.tensor.amps_out": out,
                "statevec.bytes_computed":
                    AMPLITUDE_BYTES * (_size(args[0]) + _size(args[1]) + out)}
    if name == "permute_to":
        return {"statevec.bytes_computed": AMPLITUDE_BYTES * 2 * _size(result)}
    if name == "inner_product":
        return {"statevec.bytes_computed":
                    AMPLITUDE_BYTES * (_size(args[0]) + _size(args[1]))}
    return {}


class Tracer:
    """In-memory span and counter store for one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []

    def _spanned(self, name: str, fn, traffic):
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        run_id = self.run_id
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((run_id, span_id, parent, name, start, end))
            if traffic:
                counters.update(_statevec_traffic(fn.__name__, args, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_created(self, cls, key: str, track_amps: bool):
        original = cls.__post_init__
        counters = self.counters

        def post_init(obj):
            original(obj)
            counters[key] += 1
            if track_amps and obj.amps.size > counters["statevec.peak_amps"]:
                counters["statevec.peak_amps"] = obj.amps.size

        cls.__post_init__ = post_init

    def install(self) -> None:
        """Wrap every listed function and constructor in the loaded package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "quditswap" or name.startswith("quditswap.")}
        replacements = {}
        for short, names in SPANNED.items():
            mod = modules["quditswap." + short]
            for fname in names:
                fn = getattr(mod, fname)
                replacements[id(fn)] = self._spanned(
                    f"{short}.{fname}", fn, traffic=short == "statevec")
        cli = modules["quditswap.cli"]
        for fname, span_name in CLI_SPANS.items():
            fn = getattr(cli, fname)
            replacements[id(fn)] = self._spanned(span_name, fn, traffic=False)
        for short, names in COUNTED.items():
            mod = modules["quditswap." + short]
            for fname in names:
                fn = getattr(mod, fname)
                replacements[id(fn)] = self._counted(f"{short}.{fname}", fn)
        for short, names in CREATED.items():
            mod = modules["quditswap." + short]
            for cname in names:
                self._count_created(getattr(mod, cname), f"{short}.{cname}.created",
                                    track_amps=cname == "StateVector")

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": dict(self.counters)}, handle)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, self seconds and total seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced command is
    single-threaded.
    """
    child_ns: Counter = Counter()
    for _run, _span, parent, _name, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for _run, span, _parent, name, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[span]) / 1e9
        entry["total_s"] += (end - start) / 1e9
    return totals
