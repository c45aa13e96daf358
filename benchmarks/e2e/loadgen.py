"""Closed-loop load generation: one request at a time, back to back.

One client thread sends the requests in order, each as soon as the one
before it has returned, and times each from its send to its completion.
The CPU never idles between requests, so a request's time is the
program's work and its round trip through the kernel, not the time the
host takes to wake an idle CPU.  On the shared host this benchmark was
calibrated on, that wake-up dominated an open loop (requests on a fixed
schedule, the CPU idle in between, each timed from its due time): its
median query latency spread by 30–70% and its p99 by 85–150% between
runs of the same code.

``between`` runs before each request, outside its timing; the speed probe
samples there.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["Sent", "closed_loop", "percentile", "tail"]


@dataclass(frozen=True)
class Sent:
    """One request's outcome and when it ran (clock seconds)."""

    result: Any
    start: float
    end: float

    @property
    def latency_s(self) -> float:
        """Send to completion."""
        return self.end - self.start


def closed_loop(
    ops: Sequence[Any],
    do_op: Callable[[Any], Any],
    *,
    between: Callable[[], None] = lambda: None,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Sent]:
    """Run ``do_op`` on each of ``ops`` in order, timing each call."""
    sent: list[Sent] = []
    for op in ops:
        between()
        start = clock()
        result = do_op(op)
        sent.append(Sent(result, start, clock()))
    return sent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); the max for tiny samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile up to
    p95 that still has ten samples beyond it; the median when no
    percentile above it does (runs of a few long requests).

    Not p99: on the shared host this benchmark was calibrated on, the p99
    of query-mixed's queries spread by up to 11% between runs of one code,
    the p95 by up to 7%.
    """
    ordered = sorted(values)
    n = len(ordered)
    median_rank = max(1, -(-n // 2))
    rank = max(min(-(-n * 95 // 100), n - 10), median_rank)
    return ordered[rank - 1], 100.0 * rank / n
