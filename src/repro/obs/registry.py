"""Telemetry registry: counters, gauges, timers, histograms, and spans.

The registry is the single mutable hub of :mod:`repro.obs`.  Instrumented
code asks it for named *instruments* (get-or-create), emits structured
*events*, and opens *spans* (wall-clock traced regions, arbitrarily
nested).  Sinks attached to the registry receive every event/span as a
plain JSON-ready dict when it happens; metric instruments are flushed to
the sinks as one dict each on :meth:`TelemetryRegistry.flush` /
:meth:`close`.  A registry with no sink (a pool worker's) buffers its
events instead, up to a cap past which it counts ``obs.events_dropped``.

Two properties the hot paths rely on:

- **Disabled is free.**  The :data:`NULL_TELEMETRY` singleton (a
  :class:`NullTelemetry`) makes every operation a no-op; callers in inner
  loops additionally guard on ``enabled`` so the disabled path costs one
  attribute read.
- **Merge is associative.**  :meth:`snapshot` produces a plain dict that
  pickles across process boundaries; :meth:`merge` folds it back in
  (counters sum, timers combine, histograms add bucket-wise, buffered
  events re-emit).  Worker registries therefore compose into the parent in
  any grouping with the same result, which is what makes ``jobs > 1``
  solver runs lose no visibility.

Wall-clock access for instrumented packages goes through :func:`clock`
(or ``registry.clock()``) so that ``repro.core`` / ``repro.simulation`` /
``repro.partition`` never call :mod:`time` directly (lint rule REP007).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from types import TracebackType
from typing import Any

from repro.obs.schema import SCHEMA
from repro.obs.sinks import Sink

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "Span",
    "TelemetryRegistry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "clock",
]

#: Cap on buffered events per sink-less registry; beyond it events are
#: dropped and counted in the ``obs.events_dropped`` counter.
_EVENT_BUFFER_CAP = 50_000


def clock() -> float:
    """Monotonic seconds for interval measurement (the sanctioned source).

    Instrumented packages use this instead of ``time.perf_counter`` so the
    REP007 lint rule can keep ad-hoc timing out of library code.
    """
    return time.perf_counter()


def _wall_ts() -> float:
    """Wall-clock UNIX timestamp for event records."""
    return time.time()


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}

    def merge(self, other: dict[str, Any]) -> None:
        self.value += int(other["value"])


class Gauge:
    """Last-written float value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}

    def merge(self, other: dict[str, Any]) -> None:
        # Last write wins; a merged-in snapshot is "newer" than our state.
        self.value = float(other["value"])


class Timer:
    """Aggregate of observed durations (count/total/min/max)."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }

    def merge(self, other: dict[str, Any]) -> None:
        count = int(other["count"])
        if count == 0:
            return
        if self.count == 0:
            self.min_s = float("inf")
        self.count += count
        self.total_s += float(other["total_s"])
        self.min_s = min(self.min_s, float(other["min_s"]))
        self.max_s = max(self.max_s, float(other["max_s"]))


class Histogram:
    """Fixed-bucket histogram: ``len(bounds) + 1`` counts.

    Observation ``x`` lands in bucket ``i`` where ``bounds[i-1] < x <=
    bounds[i]`` (first bucket: ``x <= bounds[0]``, last: ``x >
    bounds[-1]``).  Bounds are fixed at creation, so merging is bucket-wise
    addition; merging histograms with different bounds is an error.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be non-empty and sorted: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, x: float) -> None:
        x = float(x)
        # bisect_left: the first i with bounds[i] >= x, i.e. "x <= bounds[i]";
        # x above every bound falls into the overflow bucket.
        self.counts[bisect_left(self.bounds, x)] += 1
        self.count += 1
        self.sum += x

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }

    def merge(self, other: dict[str, Any]) -> None:
        if tuple(float(b) for b in other["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram '{self.name}': bounds differ "
                f"({other['bounds']} vs {list(self.bounds)})"
            )
        for i, c in enumerate(other["counts"]):
            self.counts[i] += int(c)
        self.count += int(other["count"])
        self.sum += float(other["sum"])


class Span:
    """A traced wall-clock region; use via ``registry.span(name, ...)``.

    Context-manager protocol: entering records the start, exiting emits one
    ``"span"`` event carrying duration, nesting depth, parent span name,
    and status (``"error"`` when exiting on an exception — which always
    propagates; spans never swallow).
    """

    __slots__ = ("_registry", "name", "attrs", "_start", "_depth", "_parent")

    def __init__(self, registry: "TelemetryRegistry", name: str, attrs: dict[str, Any]) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0
        self._parent: str | None = None

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack
        self._parent = stack[-1].name if stack else None
        self._depth = len(stack)
        stack.append(self)
        self._start = clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        duration = clock() - self._start
        stack = self._registry._span_stack
        # Exception safety: unwind to (and including) this span even if
        # inner spans were abandoned without __exit__.
        while stack:
            popped = stack.pop()
            if popped is self:
                break
        self._registry._emit(
            {
                "schema": SCHEMA,
                "kind": "span",
                "name": self.name,
                "ts": _wall_ts(),
                "duration_s": duration,
                "depth": self._depth,
                "parent": self._parent,
                "status": "error" if exc_type is not None else "ok",
                "attrs": self.attrs,
            }
        )
        # Returning None propagates any exception.


class TelemetryRegistry:
    """Named instruments + sinks + span stack (see module docstring)."""

    enabled = True

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sinks: list[Sink] = []
        self._events: list[dict[str, Any]] = []
        self._span_stack: list[Span] = []
        self._closed = False

    # -- sinks ---------------------------------------------------------- #

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def _emit(self, event: dict[str, Any]) -> None:
        if self._sinks:
            for sink in self._sinks:
                sink.write(event)
        elif len(self._events) < _EVENT_BUFFER_CAP:
            self._events.append(event)
        else:
            self.counter("obs.events_dropped").inc()

    # -- instruments ---------------------------------------------------- #

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def timer(self, name: str) -> Timer:
        inst = self._timers.get(name)
        if inst is None:
            inst = self._timers[name] = Timer(name)
        return inst

    def histogram(self, name: str, bounds: tuple[float, ...]) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, bounds)
        elif inst.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram '{name}' already registered with bounds {inst.bounds}"
            )
        return inst

    # -- events / spans / time ------------------------------------------ #

    def event(self, name: str, **fields: Any) -> None:
        """Emit one structured event to every sink (or the buffer if none)."""
        self._emit(
            {
                "schema": SCHEMA,
                "kind": "event",
                "name": name,
                "ts": _wall_ts(),
                "fields": fields,
            }
        )

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager tracing the wall-clock of the enclosed block."""
        return Span(self, name, attrs)

    def clock(self) -> float:
        """Monotonic seconds (see module-level :func:`clock`)."""
        return clock()

    # -- snapshot / merge / flush --------------------------------------- #

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict state: metrics + buffered events (pickles cleanly).

        Only a sink-less registry buffers events, so a registry with sinks
        snapshots its metrics alone.
        """
        return {
            "schema": SCHEMA,
            "name": self.name,
            "counters": {n: c.to_dict() for n, c in self._counters.items()},
            "gauges": {n: g.to_dict() for n, g in self._gauges.items()},
            "timers": {n: t.to_dict() for n, t in self._timers.items()},
            "histograms": {n: h.to_dict() for n, h in self._histograms.items()},
            "events": list(self._events),
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry; its buffered events are re-emitted here, in order.

        Merged spans are re-rooted under the span open here at merge time:
        their depth grows by the open stack's length, and a worker's root
        span names the innermost open span as its parent, so a pool fan-out
        traces as one tree.  With no span open, spans re-emit unchanged.
        """
        for name, data in snap.get("counters", {}).items():
            self.counter(name).merge(data)
        for name, data in snap.get("gauges", {}).items():
            self.gauge(name).merge(data)
        for name, data in snap.get("timers", {}).items():
            self.timer(name).merge(data)
        for name, data in snap.get("histograms", {}).items():
            self.histogram(name, tuple(data["bounds"])).merge(data)
        stack = self._span_stack
        for event in snap.get("events", []):
            if stack and event.get("kind") == "span":
                parent = event["parent"] if event["depth"] else stack[-1].name
                event = {**event, "depth": event["depth"] + len(stack), "parent": parent}
            self._emit(event)

    def _metric_events(self) -> list[dict[str, Any]]:
        ts = _wall_ts()
        out: list[dict[str, Any]] = []
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("timer", self._timers),
            ("histogram", self._histograms),
        ):
            for name in sorted(table):
                record: dict[str, Any] = {
                    "schema": SCHEMA, "kind": kind, "name": name, "ts": ts,
                }
                record.update(table[name].to_dict())  # type: ignore[attr-defined]
                out.append(record)
        return out

    def flush(self) -> None:
        """Write one record per metric instrument to every sink."""
        for record in self._metric_events():
            for sink in self._sinks:
                sink.write(record)

    def close(self) -> None:
        """Flush metrics and close all sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        for sink in self._sinks:
            sink.close()


class _NullInstrument:
    """Shared do-nothing instrument so unguarded calls stay safe."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, x: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op, ``enabled`` is False.

    The singleton :data:`NULL_TELEMETRY` is what instrumented code falls
    back to when no registry is supplied, so the un-instrumented call
    pattern ``tel = telemetry or NULL_TELEMETRY; if tel.enabled: ...``
    costs one boolean check.
    """

    enabled = False
    name = "null"

    def add_sink(self, sink: Sink) -> None:
        pass

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def timer(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: tuple[float, ...]) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def event(self, name: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def clock(self) -> float:
        return 0.0

    def snapshot(self) -> dict[str, Any]:
        return {}

    def merge(self, snap: dict[str, Any]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()
