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

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.obs.registry": (
            "TelemetryRegistry",
            "NullTelemetry",
            "NULL_TELEMETRY",
            "Counter",
            "Gauge",
            "Timer",
            "Histogram",
            "Span",
            "clock",
        ),
        "repro.obs.sinks": ("Sink", "JsonlSink", "MemorySink", "SummarySink"),
        "repro.obs.schema": ("SCHEMA", "KINDS", "validate_event", "validate_lines"),
        "repro.obs.summarize": ("load_jsonl", "scan_jsonl", "summarize_events"),
        "repro.obs.analyze": (
            "SpanNode",
            "build_span_trees",
            "span_rollup",
            "critical_path",
            "folded_stacks",
            "format_folded",
            "analyze_report",
        ),
        "repro.obs.progress": ("TraceTailer", "ProgressAggregator", "StoreProgress", "monitor"),
        "repro.obs.regress": ("load_bench", "detect_regressions", "format_checks"),
    },
)
