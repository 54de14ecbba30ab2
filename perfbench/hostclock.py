"""Times operations at a fixed host speed.

On a few vCPUs of a shared host, the speed a process gets moves by up to
1.8x for seconds to minutes at a time, with the neighbours' load: the same
fixed set of serve requests took 20 ms each in one minute and 36 ms in
the next, and user CPU time moved with wall time.  A run-wide median or
best time follows those moves.

``HostClock`` measures the host's speed while the benchmark runs: every
``PERIOD_S`` a SIGALRM handler times ``REF_LOOP_N`` iterations of a fixed
pure-Python loop.  An operation's time *at nominal speed* is its wall time,
minus the time the handler spent inside it, divided by the host factor:
the median loop time sampled around the operation over ``REF_NOMINAL_S``.
The values are thus milliseconds on a host where the loop takes exactly
``REF_NOMINAL_S``; a change that makes coldgraph faster or slower moves
them just as it moves wall time, while the host's load cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

REF_LOOP_N = 16_000  # about 1 ms of interpreter work on a quiet host
REF_NOMINAL_S = 1e-3  # the loop time that defines nominal speed
PERIOD_S = 0.1  # one sample per 100 ms costs about 1% of the run
WINDOW_S = 0.5  # samples this close to an operation describe its host
MIN_SAMPLES = 3


def ref_loop_s() -> float:
    t = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i
    return time.perf_counter() - t


@dataclass(frozen=True)
class Timed:
    """One timed operation: its wall interval and its own seconds."""

    start: float
    end: float
    own_s: float  # end - start minus the sampling done inside


class HostClock:
    def __init__(self):
        self.sample_at: list = []
        self.sample_s: list = []
        self.sampling_s = 0.0  # total time spent in the handler

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        took = ref_loop_s()
        self.sample_at.append(t)
        self.sample_s.append(took)
        self.sampling_s += time.perf_counter() - t

    @contextmanager
    def running(self):
        """Sample the host every ``PERIOD_S`` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)  # so that even a block shorter than a period has samples
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)

    def call(self, fn, *args):
        """``fn(*args)`` and the :class:`Timed` record of the call."""
        sampled = self.sampling_s
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, Timed(start, end, end - start - (self.sampling_s - sampled))

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran around ``[start, end]``."""
        if not self.sample_s:
            raise ValueError("the host was not sampled")
        window = WINDOW_S
        while True:
            near = [s for at, s in zip(self.sample_at, self.sample_s)
                    if start - window <= at <= end + window]
            if len(near) >= min(MIN_SAMPLES, len(self.sample_s)):
                return statistics.median(near) / REF_NOMINAL_S
            window *= 2

    def nominal_s(self, op: Timed) -> float:
        """The operation's seconds at nominal host speed."""
        return op.own_s / self.factor(op.start, op.end)

    def median_factor(self, start: float, end: float) -> float:
        inside = [s for at, s in zip(self.sample_at, self.sample_s) if start <= at <= end]
        return statistics.median(inside) / REF_NOMINAL_S if inside else float("nan")
