"""Tests for campaign execution: caching, drain/resume, retries, timeouts."""

from __future__ import annotations

from dataclasses import asdict

import pytest

import repro.campaign.executor as executor_mod
from repro.campaign.executor import _execute_point, run_campaign
from repro.campaign.report import campaign_status, format_report, format_status
from repro.campaign.spec import ExecutorConfig, load_spec, point_digest
from repro.campaign.store import CampaignStore
from repro.obs import MemorySink, TelemetryRegistry


def make_spec(name="exec-unit", seeds=(0, 1), steps=300, **executor):
    executor.setdefault("checkpoint_every", 100)
    return load_spec(
        {
            "name": name,
            "grid": {"n": [24], "r": [6], "seed": list(seeds)},
            "defaults": {"steps": steps, "restarts": 2},
            "executor": executor,
        }
    )


def strip_wall(summary) -> dict:
    data = asdict(summary)
    data.pop("wall_time_s")
    return data


def assert_stores_identical(spec, ref_root, other_root):
    ref = CampaignStore(ref_root, spec.name)
    other = CampaignStore(other_root, spec.name)
    for digest in spec.digests():
        assert ref.result_graph_digest(digest) == other.result_graph_digest(digest)
        a, b = ref.load_result(digest), other.load_result(digest)
        assert a.h_aspl == b.h_aspl
        assert a.diameter == b.diameter
        assert [strip_wall(s) for s in a.restarts] == [
            strip_wall(s) for s in b.restarts
        ]


class TestRunAndCache:
    def test_solves_and_stores_every_point(self, tmp_path):
        spec = make_spec()
        result = run_campaign(spec, tmp_path)
        assert result.count("solved") == 2
        assert not result.interrupted
        assert result.solver_work_done
        store = CampaignStore(tmp_path, spec.name)
        for digest in spec.digests():
            assert store.point_state(digest) == "solved"
            assert not store.has_checkpoint(digest)

    def test_warm_rerun_does_zero_solver_work(self, tmp_path):
        spec = make_spec()
        run_campaign(spec, tmp_path)

        def exploding(*args, **kwargs):  # any solver call is a failure
            raise AssertionError("solver ran on a warm store")

        executor_mod_solve = executor_mod._solve_point
        executor_mod._solve_point = exploding
        try:
            warm = run_campaign(spec, tmp_path)
        finally:
            executor_mod._solve_point = executor_mod_solve
        assert warm.count("cached") == 2
        assert not warm.solver_work_done
        assert "2 cached" in warm.summary()
        for outcome in warm.outcomes:
            assert outcome.h_aspl is not None

    def test_cached_points_match_solved_values(self, tmp_path):
        spec = make_spec()
        first = run_campaign(spec, tmp_path)
        warm = run_campaign(spec, tmp_path)
        assert {o.digest: o.h_aspl for o in warm.outcomes} == {
            o.digest: o.h_aspl for o in first.outcomes
        }


class TestInterruptResume:
    def test_drain_and_resume_bit_identical(self, tmp_path):
        spec = make_spec()
        ref_root = tmp_path / "ref"
        res_root = tmp_path / "res"
        run_campaign(spec, ref_root)

        killed = run_campaign(spec, res_root, stop_after_checkpoints=3)
        assert killed.interrupted
        assert killed.count("interrupted") >= 1
        store = CampaignStore(res_root, spec.name)
        # The drained point left a resumable checkpoint behind.
        states = [store.point_state(d) for d in spec.digests()]
        assert "checkpointed" in states

        resumed = run_campaign(spec, res_root)
        assert not resumed.interrupted
        assert resumed.count("solved") + resumed.count("cached") == 2
        assert_stores_identical(spec, ref_root, res_root)
        for digest in spec.digests():
            assert not store.has_checkpoint(digest)

    def test_points_after_the_drain_are_marked_interrupted(self, tmp_path):
        spec = make_spec()
        killed = run_campaign(spec, tmp_path, stop_after_checkpoints=1)
        statuses = [o.status for o in killed.outcomes]
        # First point dies at its first checkpoint; the second never starts.
        assert statuses == ["interrupted", "interrupted"]

    def test_double_kill_then_resume(self, tmp_path):
        spec = make_spec()
        ref_root = tmp_path / "ref"
        res_root = tmp_path / "res"
        run_campaign(spec, ref_root)
        run_campaign(spec, res_root, stop_after_checkpoints=2)
        run_campaign(spec, res_root, stop_after_checkpoints=3)
        final = run_campaign(spec, res_root)
        assert not final.interrupted
        assert_stores_identical(spec, ref_root, res_root)

    def test_stop_after_checkpoints_validation(self, tmp_path):
        with pytest.raises(ValueError, match="stop_after_checkpoints"):
            run_campaign(make_spec(), tmp_path, stop_after_checkpoints=0)

    def test_jobs_validation(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(make_spec(), tmp_path, jobs=0)


class TestParallelParity:
    def test_pool_store_matches_serial_store(self, tmp_path):
        spec = make_spec(steps=200)
        serial_root = tmp_path / "serial"
        pool_root = tmp_path / "pool"
        run_campaign(spec, serial_root, jobs=1)
        result = run_campaign(spec, pool_root, jobs=2)
        assert result.count("solved") == 2
        assert_stores_identical(spec, serial_root, pool_root)

    def test_pool_telemetry_merges_worker_snapshots(self, tmp_path):
        spec = make_spec(steps=200)
        registry = TelemetryRegistry()
        sink = MemorySink()
        registry.add_sink(sink)
        run_campaign(spec, tmp_path, telemetry=registry, jobs=2)
        names = {e["name"] for e in sink.events if e.get("kind") == "event"}
        assert "campaign.point" in names
        assert "campaign.done" in names

    def test_pool_folds_each_point_before_progress_counts_it(self, tmp_path):
        # `repro monitor` follows a pool campaign point by point: each
        # point's worker records are merged, in dispatch order, before the
        # first campaign.progress record that counts the point.
        spec = make_spec(steps=200)
        registry = TelemetryRegistry()
        sink = MemorySink()
        registry.add_sink(sink)
        result = run_campaign(spec, tmp_path / "pool", telemetry=registry, jobs=2)
        records = sink.events
        progress = [i for i, e in enumerate(records) if e["name"] == "campaign.progress"]
        solves = [i for i, e in enumerate(records) if e["name"] == "solver.done"]
        assert len(solves) == len(result.outcomes) == 2
        for count, outcome in enumerate(result.outcomes, start=1):
            restarts = [
                i for i, e in enumerate(records)
                if e["name"] == "solver.restart" and e["fields"]["seed"] == outcome.point["seed"]
            ]
            first_counting = min(i for i in progress if records[i]["fields"]["done"] >= count)
            assert restarts and max(restarts) < solves[count - 1] < first_counting
        # Folded per point in dispatch order, the pool's progress records
        # are the serial run's.
        serial = MemorySink()
        serial_registry = TelemetryRegistry()
        serial_registry.add_sink(serial)
        run_campaign(spec, tmp_path / "serial", telemetry=serial_registry, jobs=1)
        assert [records[i]["fields"] for i in progress] == [
            e["fields"] for e in serial.events if e["name"] == "campaign.progress"
        ]


class TestRetriesAndFailures:
    def test_transient_crash_is_retried(self, tmp_path, monkeypatch):
        spec = make_spec(seeds=(0,), retries=2, backoff_s=0)
        real = executor_mod._solve_point
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_solve_point", flaky)
        result = run_campaign(spec, tmp_path)
        (outcome,) = result.outcomes
        assert outcome.status == "solved"
        assert outcome.attempts == 2
        assert not CampaignStore(tmp_path, spec.name).has_failure(outcome.digest)

    def test_persistent_crash_isolates_the_point(self, tmp_path, monkeypatch):
        spec = make_spec(retries=1, backoff_s=0)
        real = executor_mod._solve_point

        def crash_seed_zero(store, digest, point, *args, **kwargs):
            if point["seed"] == 0:
                raise RuntimeError("kaboom")
            return real(store, digest, point, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "_solve_point", crash_seed_zero)
        result = run_campaign(spec, tmp_path)
        assert result.count("failed") == 1
        assert result.count("solved") == 1  # the crash did not kill the pass
        (failed,) = [o for o in result.outcomes if o.status == "failed"]
        assert failed.attempts == 2  # first try + one retry
        assert "kaboom" in failed.error
        record = CampaignStore(tmp_path, spec.name).load_failure(failed.digest)
        assert record["kind"] == "error"
        assert "kaboom" in record["traceback"]

    def test_failed_point_is_retried_on_the_next_pass(self, tmp_path, monkeypatch):
        spec = make_spec(seeds=(0,), retries=0, backoff_s=0)
        monkeypatch.setattr(
            executor_mod, "_solve_point",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("kaboom")),
        )
        run_campaign(spec, tmp_path)
        store = CampaignStore(tmp_path, spec.name)
        digest = spec.digests()[0]
        assert store.point_state(digest) == "failed"

        monkeypatch.undo()
        result = run_campaign(spec, tmp_path)
        assert result.count("solved") == 1
        assert store.point_state(digest) == "solved"
        assert not store.has_failure(digest)

    def test_backoff_grows_exponentially(self, tmp_path, monkeypatch):
        spec = make_spec(seeds=(0,), retries=2, backoff_s=0.5)
        sleeps: list[float] = []
        monkeypatch.setattr(executor_mod.time, "sleep", sleeps.append)
        monkeypatch.setattr(
            executor_mod, "_solve_point",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("kaboom")),
        )
        result = run_campaign(spec, tmp_path)
        assert result.count("failed") == 1
        assert sleeps == [0.5, 1.0]


class TestTimeouts:
    POINT = {"n": 24, "r": 6, "seed": 0, "steps": 300, "restarts": 2}

    def test_timeout_fails_fast_but_keeps_the_checkpoint(self, tmp_path):
        from repro.campaign.spec import normalize_point

        point = normalize_point(self.POINT)
        digest = point_digest(point)
        store = CampaignStore(tmp_path, "unit")
        cfg = ExecutorConfig(checkpoint_every=100, timeout_s=1e-9, retries=3)
        outcome = _execute_point(store, point, cfg, None)
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # timeouts are never retried
        assert "timeout" in outcome.error
        assert store.load_failure(digest)["kind"] == "timeout"
        assert store.has_checkpoint(digest)

        # A resume with a real budget continues from the checkpoint and
        # lands on the uninterrupted answer exactly.
        ref_store = CampaignStore(tmp_path / "ref", "unit")
        reference = _execute_point(
            ref_store, point, ExecutorConfig(checkpoint_every=100), None
        )
        resumed = _execute_point(
            store, point, ExecutorConfig(checkpoint_every=100), None
        )
        assert resumed.status == "solved"
        assert resumed.h_aspl == reference.h_aspl
        assert store.result_graph_digest(digest) == ref_store.result_graph_digest(
            digest
        )
        assert not store.has_failure(digest)


class TestReportViews:
    def test_status_and_report_render_partial_campaigns(self, tmp_path):
        spec = make_spec()
        run_campaign(spec, tmp_path, stop_after_checkpoints=3)
        rows = campaign_status(spec, tmp_path)
        assert [r["state"] for r in rows].count("solved") <= 1
        status_text = format_status(spec, tmp_path)
        assert spec.name in status_text
        report_text = format_report(spec, tmp_path)
        assert "points solved" in report_text

        run_campaign(spec, tmp_path)
        rows = campaign_status(spec, tmp_path)
        assert all(r["state"] == "solved" for r in rows)
        assert "2/2 points solved" in format_report(spec, tmp_path)
