"""Gauge how fast the host runs from inside a benchmark child, as it runs.

On a shared host the same command can take 1.7x as long from one process
to the next, because the host's speed changes in phases of seconds to
minutes. A probe that runs in the same process, on the same CPU and at the
same moments as the command sees those phases too. The benchmark
multiplies each command's times by PROBE_REF_S over the median probe time
taken while it ran, so they read as if the host ran the probe in
PROBE_REF_S.

`probe_s()` times a fixed pure-Python loop that calls no quditswap code.
`Probe` runs it from a SIGALRM timer every INTERVAL_S while a command runs.
The handler runs in the main thread between bytecodes, so it lands on the
command's CPU. Each tick runs the loop twice and keeps the second time,
so the probe is timed in warm caches and the command's own cache use
moves it little. That costs about 2% of the command's time, the same for
every version of the program. `burst()` runs the loop back to back, for a
child that only sets up.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERATIONS = 2000
PROBE_REF_S = 2e-4    # probe time on the reference host
INTERVAL_S = 0.02


def probe_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += (i * 7) % 13
    return time.perf_counter() - start


class Probe:
    """Collects probe times in `samples` while the with-block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        probe_s()  # brings the loop back into the caches the command used
        self.samples.append(probe_s())

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a command shorter than INTERVAL_S
            self._tick(signal.SIGALRM, None)


def burst(count: int = 250) -> list[float]:
    return [probe_s() for _ in range(count)]
