"""Machine-speed probe for steadier timings on a shared host.

On a small shared machine the speed of a core drifts by a third or more from
one stretch of seconds to the next, often within a single scenario, and
every wall time drifts with it.  While a timed block runs, the probe
therefore interrupts it every ``INTERVAL_S`` seconds (SIGALRM from an
interval timer; no thread is started) and times a short fixed pure-Python
kernel, and it times the kernel a few times just before and just after the
block.  The kernel mixes the two kinds of work the package does per round:
float arithmetic on small lists with ``bisect`` (the engine), and hashing
counters into frozenset edge sets looked up in a dict (the graph schedules).

A block's reported time is its wall time minus the time spent in the probe,
multiplied by ``NOMINAL_KERNEL_S`` over the mean kernel time: seconds on a
machine where the kernel takes ``NOMINAL_KERNEL_S``.  The kernel never calls
the package, so a faster or slower package moves the reported times exactly
as it moves wall time.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

# the kernel's typical time on a 2-vCPU Intel Xeon host (Python 3.11)
NOMINAL_KERNEL_S = 0.001
INTERVAL_S = 0.05
EDGE_SAMPLES = 3  # kernel runs just before and just after each block

_BREAKPOINTS = [i / 512 for i in range(512)]
_MASK = (1 << 64) - 1


def kernel() -> float:
    x = [0.1, 0.2, 0.3, 0.4]
    acc = 0.0
    for t in range(1, 151):
        eta = 1.0 / (t + 50.0)
        new = []
        for j in range(4):
            i = bisect_left(_BREAKPOINTS, x[j] % 1.0)
            new.append(0.5 * x[j] + 0.25 * x[j - 1] + 0.25 * x[(j + 1) % 4]
                       - eta * (i / 512 - 0.5))
        x = new
        acc += sum(x)
    cache = {}
    for t in range(1, 101):
        h = (t * 0x9E3779B97F4A7C15) & _MASK
        edges = frozenset(
            (i, j) for i in range(4) for j in range(i + 1, 4) if (h >> (4 * i + j)) & 1
        )
        rows = cache.get(edges)
        if rows is None:
            rows = cache[edges] = [
                [k for k in range(4) if (min(j, k), max(j, k)) in edges] for j in range(4)
            ]
        acc += len(rows[0]) + len(edges)
    return acc


class Timing:
    """One probed block: ``seconds`` of wall time outside the probe, and the
    speed ``factor`` that scales them to the nominal machine."""

    seconds: float = 0.0
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


class SpeedProbe:
    def __init__(self) -> None:
        # (start, seconds) of every kernel run, so that a tracer can take
        # the probe's time out of the spans it interrupted
        self.intervals: list[tuple[float, float]] = []
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self) -> float:
        # runs inside the signal handler too: touch nothing but this probe
        started = perf_counter()
        kernel()
        seconds = perf_counter() - started
        self._samples.append(seconds)
        self.intervals.append((started, seconds))
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self._spent += self._sample()

    @contextmanager
    def timing(self):
        """Time the block; the yielded Timing is filled in when it exits."""
        timing = Timing()
        self._samples = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
        timing.seconds = elapsed - self._spent
        for _ in range(EDGE_SAMPLES):
            self._sample()
        timing.factor = NOMINAL_KERNEL_S * len(self._samples) / sum(self._samples)
