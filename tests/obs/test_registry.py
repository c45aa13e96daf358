"""Registry instruments, spans, snapshot/merge, and the null object."""

from __future__ import annotations

import pickle

import pytest

import repro.obs.registry as registry_module
from repro.obs import (
    NULL_TELEMETRY,
    MemorySink,
    NullTelemetry,
    TelemetryRegistry,
    build_span_trees,
)


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = TelemetryRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert reg.counter("x") is c
        assert reg.counter("x").value == 5

    def test_gauge_last_write_wins(self):
        reg = TelemetryRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5

    def test_timer_aggregates(self):
        reg = TelemetryRegistry()
        t = reg.timer("t")
        for s in (0.5, 0.25, 1.0):
            t.observe(s)
        assert t.count == 3
        assert t.total_s == 1.75
        assert t.min_s == 0.25
        assert t.max_s == 1.0
        assert t.mean_s == pytest.approx(1.75 / 3)

    def test_empty_timer_serializes_zero_min(self):
        t = TelemetryRegistry().timer("t")
        assert t.to_dict() == {"count": 0, "total_s": 0.0, "min_s": 0.0, "max_s": 0.0}

    def test_histogram_bucket_rule(self):
        # bucket i is "bounds[i-1] < x <= bounds[i]"; last bucket overflows.
        h = TelemetryRegistry().histogram("h", (0.0, 1.0, 2.0))
        for x in (-5.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            h.observe(x)
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == 2.5

    def test_histogram_rejects_unsorted_bounds(self):
        reg = TelemetryRegistry()
        with pytest.raises(ValueError, match="sorted"):
            reg.histogram("h", (1.0, 0.0))
        with pytest.raises(ValueError, match="sorted"):
            reg.histogram("e", ())

    def test_histogram_bounds_conflict_raises(self):
        reg = TelemetryRegistry()
        reg.histogram("h", (0.0, 1.0))
        assert reg.histogram("h", (0.0, 1.0)).name == "h"
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("h", (0.0, 2.0))


class TestEventsAndSinks:
    def test_event_reaches_sink_and_buffer(self):
        # An event goes to the sinks when there are any, else to the buffer.
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        reg.event("hello", a=1)
        assert len(sink.events) == 1
        assert sink.events[0]["kind"] == "event"
        assert sink.events[0]["fields"] == {"a": 1}
        assert reg.snapshot()["events"] == []

        worker = TelemetryRegistry("worker")
        worker.event("hello", a=1)
        (buffered,) = worker.snapshot()["events"]
        assert buffered["fields"] == {"a": 1}

    def test_disabled_registry_emits_nothing(self):
        reg = NullTelemetry()
        sink = MemorySink()
        reg.add_sink(sink)
        reg.event("hello")
        with reg.span("s"):
            pass
        reg.counter("c").inc()
        reg.close()
        assert sink.events == []
        assert reg.snapshot() == {}

    def test_event_buffer_cap_drops_but_still_sinks(self, monkeypatch):
        monkeypatch.setattr(registry_module, "_EVENT_BUFFER_CAP", 3)
        worker = TelemetryRegistry("worker")
        for i in range(5):
            worker.event("e", i=i)
        assert len(worker.snapshot()["events"]) == 3
        assert worker.counter("obs.events_dropped").value == 2

        # A registry with a sink keeps no buffer, so nothing is dropped.
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        for i in range(5):
            reg.event("e", i=i)
        assert len(sink.events) == 5
        assert reg.snapshot()["events"] == []
        assert "obs.events_dropped" not in reg.snapshot()["counters"]

    def test_flush_writes_one_record_per_metric(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.timer("t").observe(0.5)
        reg.histogram("h", (1.0,)).observe(0.5)
        reg.flush()
        assert sorted(ev["kind"] for ev in sink.events) == [
            "counter", "gauge", "histogram", "timer",
        ]

    def test_close_is_idempotent_and_closes_sinks(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        reg.counter("c").inc()
        reg.close()
        reg.close()
        assert sink.closed
        assert sum(ev["kind"] == "counter" for ev in sink.events) == 1


class TestSnapshotMerge:
    @staticmethod
    def _populated(tag: int) -> TelemetryRegistry:
        # Exactly-representable floats so merge grouping cannot round.
        reg = TelemetryRegistry(f"worker-{tag}")
        reg.counter("c").inc(tag)
        reg.gauge("g").set(float(tag))
        reg.timer("t").observe(0.25 * tag)
        reg.histogram("h", (0.0, 1.0)).observe(float(tag))
        reg.event("tagged", tag=tag)
        return reg

    def test_snapshot_pickles(self):
        snap = self._populated(1).snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_accumulates(self):
        parent = TelemetryRegistry("parent")
        parent.merge(self._populated(1).snapshot())
        parent.merge(self._populated(2).snapshot())
        assert parent.counter("c").value == 3
        assert parent.gauge("g").value == 2.0  # last write wins
        t = parent.timer("t")
        assert (t.count, t.total_s, t.min_s, t.max_s) == (2, 0.75, 0.25, 0.5)
        assert parent.histogram("h", (0.0, 1.0)).counts == [0, 1, 1]
        assert [e["fields"]["tag"] for e in parent.snapshot()["events"]] == [1, 2]

    def test_merge_is_associative(self):
        snaps = [self._populated(tag).snapshot() for tag in (1, 2, 3)]

        left = TelemetryRegistry("fold")
        for snap in snaps:
            left.merge(snap)

        mid = TelemetryRegistry("mid")
        mid.merge(snaps[1])
        mid.merge(snaps[2])
        right = TelemetryRegistry("fold")
        right.merge(snaps[0])
        right.merge(mid.snapshot())

        assert left.snapshot() == right.snapshot()

    def test_merge_empty_timer_keeps_min(self):
        parent = TelemetryRegistry()
        parent.timer("t").observe(0.5)
        parent.merge({"timers": {"t": {"count": 0, "total_s": 0.0,
                                       "min_s": 0.0, "max_s": 0.0}}})
        assert parent.timer("t").min_s == 0.5

    def test_merge_into_empty_timer_resets_min(self):
        parent = TelemetryRegistry()
        parent.timer("t")  # created, never observed
        parent.merge({"timers": {"t": {"count": 2, "total_s": 1.0,
                                       "min_s": 0.25, "max_s": 0.75}}})
        assert parent.timer("t").min_s == 0.25

    def test_merge_histogram_bounds_mismatch_raises(self):
        parent = TelemetryRegistry()
        parent.histogram("h", (0.0, 1.0))
        bad = self._populated(1).snapshot()
        bad["histograms"]["h"]["bounds"] = [0.0, 2.0]
        # The get-or-create step rejects the conflicting bounds before
        # Histogram.merge would; either way merge() must raise.
        with pytest.raises(ValueError, match="bounds"):
            parent.merge(bad)

    def test_merged_events_reach_parent_sinks(self):
        parent = TelemetryRegistry()
        sink = MemorySink()
        parent.add_sink(sink)
        parent.merge(self._populated(7).snapshot())
        assert [e["name"] for e in sink.events] == ["tagged"]

    @staticmethod
    def _worker_spans() -> dict:
        worker = TelemetryRegistry("worker")
        with worker.span("run"):
            with worker.span("step"):
                pass
        return worker.snapshot()

    def test_merged_spans_nest_under_the_open_span(self):
        parent = TelemetryRegistry()
        sink = MemorySink()
        parent.add_sink(sink)
        snap = self._worker_spans()
        with parent.span("outer"):
            with parent.span("fan_out"):
                parent.merge(snap)
        assert [(e["name"], e["depth"], e["parent"]) for e in sink.events] == [
            ("step", 3, "run"), ("run", 2, "fan_out"),
            ("fan_out", 1, "outer"), ("outer", 0, None),
        ]
        (root,) = build_span_trees(sink.events)
        assert root.name == "outer"
        # The snapshot itself is left as the worker wrote it.
        assert [(e["depth"], e["parent"]) for e in snap["events"]] == [(1, "run"), (0, None)]

    def test_merge_with_no_open_span_keeps_spans_as_they_were(self):
        parent = TelemetryRegistry()
        sink = MemorySink()
        parent.add_sink(sink)
        parent.merge(self._worker_spans())
        assert [(e["name"], e["depth"], e["parent"]) for e in sink.events] == [
            ("step", 1, "run"), ("run", 0, None),
        ]


class TestSpans:
    def test_span_event_payload(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        with reg.span("outer", phase="x"):
            pass
        (ev,) = sink.events
        assert ev["kind"] == "span"
        assert ev["name"] == "outer"
        assert ev["status"] == "ok"
        assert ev["depth"] == 0
        assert ev["parent"] is None
        assert ev["attrs"] == {"phase": "x"}
        assert ev["duration_s"] >= 0.0

    def test_nested_spans_track_depth_and_parent(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        inner, outer = sink.events  # inner closes first
        assert (inner["name"], inner["depth"], inner["parent"]) == ("inner", 1, "outer")
        assert (outer["name"], outer["depth"], outer["parent"]) == ("outer", 0, None)

    def test_span_exception_marks_error_and_propagates(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        with pytest.raises(RuntimeError, match="boom"):
            with reg.span("fails"):
                raise RuntimeError("boom")
        (ev,) = sink.events
        assert ev["status"] == "error"
        assert reg._span_stack == []

    def test_exception_through_nested_spans_unwinds_stack(self):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        with pytest.raises(ValueError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise ValueError
        assert [e["status"] for e in sink.events] == ["error", "error"]
        assert reg._span_stack == []
        # Registry still usable afterwards.
        with reg.span("again"):
            pass
        assert sink.events[-1]["status"] == "ok"


class TestNullTelemetry:
    def test_singleton_is_disabled(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert NULL_TELEMETRY.enabled is False

    def test_all_operations_are_noops(self):
        NULL_TELEMETRY.counter("c").inc()
        NULL_TELEMETRY.gauge("g").set(1.0)
        NULL_TELEMETRY.timer("t").observe(1.0)
        NULL_TELEMETRY.histogram("h", (1.0,)).observe(0.5)
        NULL_TELEMETRY.event("e", a=1)
        with NULL_TELEMETRY.span("s", k=2):
            pass
        assert NULL_TELEMETRY.snapshot() == {}
        NULL_TELEMETRY.merge({"counters": {"c": {"value": 3}}})
        NULL_TELEMETRY.flush()
        NULL_TELEMETRY.close()
        assert NULL_TELEMETRY.snapshot() == {}
