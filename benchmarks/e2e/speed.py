"""Host-speed correction for timings taken on a shared host.

On the 2-vCPU host this benchmark was calibrated on, a vCPU's speed
drifts by up to 1.7x for tens of seconds to minutes at a time, so raw
wall times of one workload spread by 20–50% between runs made minutes
apart.  A longer run does not average that out; a reference measured at
the same moment does.

While a workload runs, :class:`SpeedProbe` times a fixed pure-Python
micro-kernel in the benchmark's own process every ``INTERVAL_S`` from a
``SIGALRM`` handler.  A timing ``[start, end]`` is corrected as::

    corrected = (end - start - probe time inside it) * REFERENCE_S / k

where ``k`` is the median kernel time over ``[start - MARGIN_S, end +
MARGIN_S]``, so corrected seconds read as wall seconds at the speed the
host had when ``REFERENCE_S`` was measured.  The probe's own time is
taken out of the timing, so it costs the program nothing it is charged
for.

The kernel runs in the benchmark's process and touches a few KiB, so it
feels what changes the core's speed (frequency, a busy sibling thread)
but not the program's cache footprint.  That matters: a probe gathering
8 MiB, tried first, slowed down whenever the program used more cache,
and corrected a cache-polluting slowdown away.  ``check_probe.py``
measures this independence; README.md has the result.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from collections.abc import Iterator
from types import FrameType, TracebackType

__all__ = ["REFERENCE_S", "SpeedProbe", "kernel"]

#: Median kernel time (s) on the calibration host, measured in this probe.
REFERENCE_S = 0.00114
INTERVAL_S = 0.1
MARGIN_S = 1.0


def kernel() -> None:
    """The fixed micro-kernel: interpreted integer arithmetic.

    It allocates no object the garbage collector tracks, so it never moves
    the program's collections.
    """
    total = 0
    for i in range(20_000):
        total += i * i


class SpeedProbe:
    """Kernel timings taken alongside a workload, and the correction they give.

    As a context manager it samples from a ``SIGALRM`` interval timer;
    :meth:`paused` stops the timer where a handler would disturb what is
    timed (requests) or would time a child process's share of the CPU.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = -float("inf")
        self._previous: object = None

    def sample(self) -> None:
        """Time the kernel once (at most once per ``INTERVAL_S``)."""
        t0 = time.perf_counter()
        if t0 - self._last < INTERVAL_S:
            return
        self._last = t0
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def _on_alarm(self, signum: int, frame: FrameType | None) -> None:
        self.sample()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the timer; the caller may still :meth:`sample` itself."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def own_time(self, start: float, end: float) -> float:
        """Probe seconds spent inside ``[start, end]``."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def kernel_time(self, start: float, end: float) -> float:
        """Median kernel time around ``[start, end]`` (nearest sample if none)."""
        if not self.starts:
            raise RuntimeError("speed probe took no samples")
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return statistics.median(self.durations[lo:hi])

    def corrected(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed,
        less the probe's own time."""
        busy = end - start - self.own_time(start, end)
        return busy * REFERENCE_S / self.kernel_time(start, end)
