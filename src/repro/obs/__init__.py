"""``repro.obs`` — zero-dependency telemetry for the ORP reproduction.

The observability layer every subsystem reports through:

- :class:`TelemetryRegistry` — named counters / gauges / timers /
  fixed-bucket histograms, structured events, and nested wall-clock
  :meth:`~TelemetryRegistry.span` tracing;
- sinks — :class:`JsonlSink` (machine-readable event stream behind the
  CLI's ``--telemetry-out``), :class:`MemorySink` (tests), and
  :class:`SummarySink` (human-readable table on close);
- :func:`clock` — the sanctioned monotonic-time source for instrumented
  packages (lint rule REP007 keeps raw ``time.*`` calls out of
  ``repro.core`` / ``repro.simulation`` / ``repro.partition``);
- merge semantics — worker registries :meth:`~TelemetryRegistry.snapshot`
  into plain dicts that the parent :meth:`~TelemetryRegistry.merge`\\ s,
  so ``ProcessPoolExecutor`` fan-outs lose no visibility.

Instrumentation contract: accept ``telemetry: TelemetryRegistry | None``,
fall back to :data:`NULL_TELEMETRY`, and guard any per-iteration work with
``telemetry.enabled`` so the disabled path adds no measurable overhead.
"""

from repro.obs.registry import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Span,
    TelemetryRegistry,
    Timer,
    clock,
)
from repro.obs.schema import KINDS, SCHEMA, validate_event, validate_lines
from repro.obs.sinks import JsonlSink, MemorySink, Sink, SummarySink


_LAZY = {
    # Lazy: these pull in repro.analysis / repro.campaign (which import
    # repro.core); loading them here eagerly would cycle with repro.core
    # importing obs.
    "load_jsonl": "repro.obs.summarize",
    "scan_jsonl": "repro.obs.summarize",
    "summarize_events": "repro.obs.summarize",
    "build_span_trees": "repro.obs.analyze",
    "span_rollup": "repro.obs.analyze",
    "critical_path": "repro.obs.analyze",
    "folded_stacks": "repro.obs.analyze",
    "format_folded": "repro.obs.analyze",
    "analyze_report": "repro.obs.analyze",
    "SpanNode": "repro.obs.analyze",
    "TraceTailer": "repro.obs.progress",
    "ProgressAggregator": "repro.obs.progress",
    "StoreProgress": "repro.obs.progress",
    "monitor": "repro.obs.progress",
    "load_bench": "repro.obs.regress",
    "detect_regressions": "repro.obs.regress",
    "format_checks": "repro.obs.regress",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "TelemetryRegistry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "Span",
    "clock",
    "Sink",
    "JsonlSink",
    "MemorySink",
    "SummarySink",
    "SCHEMA",
    "KINDS",
    "validate_event",
    "validate_lines",
    "load_jsonl",
    "scan_jsonl",
    "summarize_events",
    "SpanNode",
    "build_span_trees",
    "span_rollup",
    "critical_path",
    "folded_stacks",
    "format_folded",
    "analyze_report",
    "TraceTailer",
    "ProgressAggregator",
    "StoreProgress",
    "monitor",
    "load_bench",
    "detect_regressions",
    "format_checks",
]
