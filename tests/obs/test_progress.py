"""Live monitoring: trace tailing, rolling aggregates, store snapshots."""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import load_spec
from repro.obs import JsonlSink
from repro.obs.progress import ProgressAggregator, StoreProgress, TraceTailer, monitor


def make_spec(name="mon-unit", seeds=(0, 1), steps=300, **executor):
    executor.setdefault("checkpoint_every", 100)
    return load_spec(
        {
            "name": name,
            "grid": {"n": [24], "r": [6], "seed": list(seeds)},
            "defaults": {"steps": steps, "restarts": 2},
            "executor": executor,
        }
    )


def event(name, **fields):
    return {
        "schema": "repro.obs/v1",
        "kind": "event",
        "name": name,
        "ts": 0.0,
        "fields": fields,
    }


def write_lines(path, lines):
    with path.open("a") as fh:
        for line in lines:
            fh.write(line + "\n")


class TestTraceTailer:
    def test_incremental_reads(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text("")
        tailer = TraceTailer(trace)
        assert tailer.poll() == []
        write_lines(trace, [json.dumps(event("anneal.phase", step=1))])
        assert [r["name"] for r in tailer.poll()] == ["anneal.phase"]
        assert tailer.poll() == []  # nothing new appended
        write_lines(trace, [json.dumps(event("solver.done"))])
        assert [r["name"] for r in tailer.poll()] == ["solver.done"]
        assert not tailer.truncated
        tailer.close()

    def test_partial_line_buffered_until_complete(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        record = json.dumps(event("anneal.phase", step=5))
        trace.write_text(record[:10])  # writer mid-record
        tailer = TraceTailer(trace)
        assert tailer.poll() == []
        assert tailer.invalid_lines == 0
        with trace.open("a") as fh:
            fh.write(record[10:] + "\n")
        (rec,) = tailer.poll()
        assert rec["fields"]["step"] == 5
        tailer.close()

    def test_truncation_resets_to_start(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        write_lines(trace, [json.dumps(event("solver.start"))] * 3)
        tailer = TraceTailer(trace)
        assert len(tailer.poll()) == 3
        trace.write_text(json.dumps(event("anneal.phase")) + "\n")  # new run
        records = tailer.poll()
        assert tailer.truncated
        assert [r["name"] for r in records] == ["anneal.phase"]
        tailer.close()

    def test_rewrite_grown_past_the_old_end_reads_from_the_top(self, tmp_path):
        # A new run reopens the sink with "w" (same inode) and writes past
        # the old end between two polls: no shrink is ever seen.
        trace = tmp_path / "run.jsonl"

        def run(name, steps):
            sink = JsonlSink(trace)
            for step in range(steps):
                sink.write(event(name, step=step))
            sink.close()

        run("solver.restart", 3)
        tailer = TraceTailer(trace)
        assert [r["fields"]["step"] for r in tailer.poll()] == [0, 1, 2]
        run("anneal.heartbeat", 6)
        records = tailer.poll()
        assert [r["fields"]["step"] for r in records] == [0, 1, 2, 3, 4, 5]
        assert {r["name"] for r in records} == {"anneal.heartbeat"}
        assert tailer.truncated
        assert tailer.invalid_lines == 0
        tailer.close()

    def test_malformed_lines_counted_not_raised(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        write_lines(trace, ["{not json", '{"no": "kind"}', json.dumps(event("x"))])
        tailer = TraceTailer(trace)
        assert len(tailer.poll()) == 1
        assert tailer.invalid_lines == 2
        tailer.close()

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = TraceTailer(tmp_path / "absent.jsonl")
        assert tailer.poll() == []
        write_lines(tmp_path / "absent.jsonl", [json.dumps(event("x"))])
        assert len(tailer.poll()) == 1
        assert not tailer.truncated  # the trace appeared; nothing restarted
        tailer.close()


class TestProgressAggregator:
    def test_heartbeat_and_phase_render(self):
        agg = ProgressAggregator()
        agg.update(
            [
                event(
                    "anneal.heartbeat",
                    step=500, num_steps=1000, best=4.2, current=4.5,
                    accepted=120, elapsed_s=2.0, eta_s=2.0,
                ),
                event("anneal.phase", acceptance_rate=0.25, proposals_per_sec=250.0),
            ]
        )
        out = agg.render()
        assert "anneal: step 500/1000 (50%)" in out
        assert "best 4.2000" in out
        assert "ETA 2s" in out
        assert "acceptance 0.250" in out
        assert "250 proposals/s" in out

    def test_solver_progress_tracks_best_per_nr(self):
        agg = ProgressAggregator()
        agg.update(
            [
                event("solver.progress", restarts_done=1, restarts=2,
                      n=32, r=6, h_aspl=4.5, best_h_aspl=4.5),
                event("solver.progress", restarts_done=2, restarts=2,
                      n=32, r=6, h_aspl=4.3, best_h_aspl=4.3),
                event("solver.progress", restarts_done=1, restarts=1,
                      n=64, r=8, h_aspl=3.9, best_h_aspl=3.9),
            ]
        )
        out = agg.render()
        assert "solver: restart 1/1 done" in out  # last event wins the status line
        assert "best h-ASPL (n=32, r=6): 4.3000" in out
        assert "best h-ASPL (n=64, r=8): 3.9000" in out

    def test_campaign_progress_and_heartbeats(self):
        agg = ProgressAggregator()
        agg.update(
            [
                event("campaign.heartbeat", campaign="x", checkpoints=1,
                      done=0, points=2, in_flight=1),
                event("campaign.progress", campaign="x", points=2, done=1,
                      solved=1, cached=0, failed=0, interrupted=False, retried=0),
            ]
        )
        out = agg.render()
        assert "campaign: 1/2 points done (1 solved, 0 cached, 0 failed, 0 retried)" in out
        assert "checkpoints: 1 heartbeat(s) observed" in out

    def test_dropped_events_warn(self):
        agg = ProgressAggregator()
        agg.update(
            [
                {
                    "schema": "repro.obs/v1", "kind": "counter",
                    "name": "obs.events_dropped", "ts": 0.0, "value": 7,
                }
            ]
        )
        assert "WARNING: 7 event(s) dropped" in agg.render()

    def test_empty_stream_renders_placeholder(self):
        assert "no progress events yet" in ProgressAggregator().render()


class TestStoreProgress:
    def test_finished_campaign_snapshot(self, tmp_path):
        spec = make_spec(name="mon-done")
        run_campaign(spec, tmp_path)
        snap = StoreProgress(tmp_path / "mon-done").snapshot()
        assert "campaign mon-done: 2/2 points done" in snap
        assert "(2 solved, 0 failed, 0 in progress, 0 pending" in snap
        assert "best h-ASPL (n=24, r=6):" in snap

    def test_store_root_aggregates_campaigns(self, tmp_path):
        spec = make_spec(name="mon-root")
        run_campaign(spec, tmp_path)
        snap = StoreProgress(tmp_path).snapshot()  # root, not campaign dir
        assert "campaign mon-root" in snap

    def test_checkpointed_point_shows_progress_and_eta(self, tmp_path):
        spec = make_spec(name="mon-ckpt", steps=400)
        killed = run_campaign(spec, tmp_path, stop_after_checkpoints=2)
        assert killed.interrupted
        snap = StoreProgress(tmp_path / "mon-ckpt").snapshot()
        assert "in progress" in snap
        assert "restarts done" in snap
        assert "active restart at step" in snap
        assert "ETA" in snap

    def test_non_store_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StoreProgress(tmp_path)  # empty dir: no spec.json anywhere


class TestMonitor:
    def test_once_on_trace_file(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        write_lines(trace, [json.dumps(event("anneal.phase", acceptance_rate=0.5,
                                             proposals_per_sec=100.0))])
        out = io.StringIO()
        snapshot = monitor(trace, once=True, stream=out)
        assert f"monitoring {trace}" in snapshot
        assert "acceptance 0.500" in snapshot
        assert snapshot in out.getvalue()

    def test_once_on_store_dir(self, tmp_path):
        spec = make_spec(name="mon-cli")
        run_campaign(spec, tmp_path)
        out = io.StringIO()
        snapshot = monitor(tmp_path / "mon-cli", once=True, stream=out)
        assert "campaign mon-cli: 2/2 points done" in snapshot

    def test_cycles_bounds_the_loop(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text("")
        out = io.StringIO()
        monitor(trace, cycles=1, stream=out)  # must terminate without sleep
        assert "monitoring" in out.getvalue()

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            monitor(tmp_path / "nope.jsonl", once=True)

    def test_invalid_lines_reported_in_header(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        write_lines(trace, ["garbage", json.dumps(event("solver.start"))])
        snapshot = monitor(trace, once=True, stream=io.StringIO())
        assert "1 unparseable line(s) skipped" in snapshot
