"""load_jsonl tolerance and the summarize_events report sections."""

from __future__ import annotations

from repro.obs import (
    SCHEMA,
    JsonlSink,
    MemorySink,
    TelemetryRegistry,
    load_jsonl,
    summarize_events,
)


def _trace(populate) -> list[dict]:
    """Run ``populate(reg)`` and return the flushed record list."""
    reg = TelemetryRegistry()
    sink = MemorySink()
    reg.add_sink(sink)
    populate(reg)
    reg.close()
    return sink.events


class TestLoadJsonl:
    def test_tolerates_and_reports_bad_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        reg = TelemetryRegistry()
        reg.add_sink(JsonlSink(path))
        reg.event("good", a=1)
        reg.close()
        with path.open("a") as fh:
            fh.write("{not json\n")
            fh.write("\n")  # blank lines are skipped silently
            fh.write('{"schema": "other", "kind": "event"}\n')

        records, problems = load_jsonl(path)
        assert [r["name"] for r in records] == ["good"]
        assert len(problems) >= 2
        assert any("invalid JSON" in p for p in problems)
        assert all(p.startswith("line ") for p in problems)


class TestSummarizeSections:
    def test_empty_trace(self):
        out = summarize_events([])
        assert "0 records" in out
        assert "no recognised instrumentation" in out

    def test_annealing_section(self):
        def populate(reg):
            reg.counter("anneal.proposals").inc(1000)
            reg.counter("anneal.accepted").inc(250)
            reg.counter("anneal.improved").inc(40)
            reg.counter("anneal.moves.swing").inc(200)
            reg.counter("anneal.moves.swap").inc(50)
            reg.timer("anneal.wall_s").observe(2.0)

        out = summarize_events(_trace(populate))
        assert "acceptance rate" in out and "0.250" in out
        assert "proposals/sec" in out and "500" in out
        assert "committed swing moves" in out
        assert "committed swap moves" in out

    def test_evaluator_section(self):
        def populate(reg):
            reg.counter("evaluator.proposals").inc(100)
            reg.counter("evaluator.repaired_rows").inc(250)
            reg.counter("evaluator.fallbacks").inc(3)

        out = summarize_events(_trace(populate))
        assert "rows repaired / move" in out and "2.50" in out
        assert "fallback rebuilds" in out

    def test_evaluator_section_counts_extensions(self):
        # A Fig. 4 retry extends the pending proposal: its repaired rows
        # count per scored move set, proposals and extensions alike.
        def populate(reg):
            reg.counter("evaluator.proposals").inc(100)
            reg.counter("evaluator.extensions").inc(25)
            reg.counter("evaluator.repaired_rows").inc(250)

        out = summarize_events(_trace(populate))
        assert "extensions scored" in out and "25" in out
        assert "rows repaired / move" in out and "2.00" in out

    def test_restart_table_groups_rows_by_point(self):
        # A three-point campaign trace, two of the points a seed sweep of
        # one (n, r): each solve reports its restarts in index order, one
        # point after the other, and the seed column tells the sweep apart.
        def populate(reg):
            for n, seed in ((24, 0), (32, 0), (32, 1)):
                for index in (0, 1):
                    reg.event(
                        "solver.restart", n=n, r=6, m=8, restarts=2, seed=seed,
                        index=index, initial_h_aspl=4.0, h_aspl=3.5,
                        steps=100, accepted=30, rejected=70, wall_time_s=1.0,
                        best_h_aspl=3.5,
                    )

        out = summarize_events(_trace(populate))
        assert "per-restart summaries" in out
        rows = [ln.split("|") for ln in out.splitlines() if "3.5000" in ln]
        assert [[cell.strip() for cell in row[:4]] for row in rows] == [
            ["24", "6", "0", "0"], ["24", "6", "0", "1"],
            ["32", "6", "0", "0"], ["32", "6", "0", "1"],
            ["32", "6", "1", "0"], ["32", "6", "1", "1"],
        ]

    def test_simulation_section(self):
        def populate(reg):
            reg.counter("sim.events_fired").inc(4000)
            reg.gauge("sim.time_s").set(0.125)
            reg.timer("sim.wall_s").observe(2.0)
            reg.timer("sim.rank_compute_s").observe(0.5)
            reg.timer("sim.rank_recv_wait_s").observe(0.25)

        out = summarize_events(_trace(populate))
        assert "events fired" in out
        assert "simulated time (s)" in out and "0.125000" in out
        assert "events/sec (wall)" in out and "2000" in out
        assert "rank recv-wait" in out

    def test_partition_section_trajectory(self):
        def populate(reg):
            reg.counter("partition.trials").inc(3)
            reg.counter("partition.fm_passes").inc(12)
            for trial, cut in enumerate((90, 85, 88)):
                reg.event("partition.trial", trial=trial, nparts=4, cut=cut)

        out = summarize_events(_trace(populate))
        assert "edge-cut trajectory" in out
        assert "90 -> 85 -> 88" in out
        assert "best cut" in out and "85" in out

    def test_span_digest(self):
        def populate(reg):
            with reg.span("solver.anneal_restarts"):
                pass

        out = summarize_events(_trace(populate))
        assert "span" in out and "solver.anneal_restarts" in out

    def test_last_metric_record_wins(self):
        # Two flushes of the same counter: only the final value reports.
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        reg.counter("anneal.proposals").inc(10)
        reg.flush()
        reg.counter("anneal.proposals").inc(90)
        reg.flush()
        out = summarize_events(sink.events)
        assert "100" in out and "| 10 " not in out

    def test_report_is_schema_agnostic_about_extra_events(self):
        def populate(reg):
            reg.event("custom.thing", detail="x")
            reg.counter("anneal.proposals").inc(10)
            reg.counter("anneal.accepted").inc(5)

        out = summarize_events(_trace(populate))
        assert "acceptance rate" in out  # unknown events don't break sections


class TestSchemaConstant:
    def test_every_emitted_record_carries_schema(self):
        def populate(reg):
            reg.counter("c").inc()
            reg.event("e")
            with reg.span("s"):
                pass

        for record in _trace(populate):
            assert record["schema"] == SCHEMA


class TestDroppedEvents:
    def test_dropped_counter_warns_prominently(self):
        def populate(reg):
            reg.counter("obs.events_dropped").inc(12)
            reg.counter("anneal.proposals").inc(10)

        out = summarize_events(_trace(populate))
        lines = out.splitlines()
        # The warning sits right under the header, before any section.
        assert "WARNING: 12 event(s) dropped" in lines[1]
        assert "incomplete" in lines[1]

    def test_no_drops_no_warning(self):
        def populate(reg):
            reg.counter("anneal.proposals").inc(10)

        assert "dropped" not in summarize_events(_trace(populate))

    def test_buffer_overflow_increments_dropped_counter(self, monkeypatch):
        # Only a sink-less worker buffers; what it drops past the cap is
        # lost, and its count reaches the parent's trace through merge.
        from repro.obs import registry as registry_mod

        monkeypatch.setattr(registry_mod, "_EVENT_BUFFER_CAP", 5)
        worker = TelemetryRegistry("worker")
        for i in range(5 + 3):
            worker.event("spam", i=i)
        parent = TelemetryRegistry()
        sink = MemorySink()
        parent.add_sink(sink)
        parent.merge(worker.snapshot())
        parent.close()
        out = summarize_events(sink.events)
        assert "WARNING: 3 event(s) dropped" in out
        assert sum(e.get("name") == "spam" for e in sink.events) == 5
