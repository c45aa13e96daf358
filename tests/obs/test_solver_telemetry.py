"""Restart summaries, the live serial trace, and the jobs>1 worker-registry
merge in solve_orp."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solver import ORPSolution, RestartSummary, solve_orp
from repro.obs import MemorySink, TelemetryRegistry, build_span_trees, span_rollup

# Small non-trivial instance: n > r and no clique regime, so the annealer
# actually runs.  Kept tiny so the pool fan-out test stays fast.
N, R = 40, 6
KW = dict(m=10, restarts=3, seed=11)


def _solve(**overrides):
    from repro.core.annealing import AnnealingSchedule

    kwargs = dict(KW, schedule=AnnealingSchedule(num_steps=120), **overrides)
    return solve_orp(N, R, **kwargs)


class TestRestartSummaries:
    def test_populated_without_telemetry(self):
        sol = _solve()
        assert len(sol.restarts) == 3
        for i, summary in enumerate(sol.restarts):
            assert isinstance(summary, RestartSummary)
            assert summary.index == i
            assert summary.steps == 120
            assert summary.rejected == summary.steps - summary.accepted
            assert summary.h_aspl <= summary.initial_h_aspl
            assert summary.wall_time_s > 0
            assert isinstance(summary.seed_spawn_key, tuple)
        assert sol.h_aspl == min(s.h_aspl for s in sol.restarts)

    def test_serial_and_parallel_summaries_match(self):
        serial = _solve()
        parallel = _solve(jobs=3)
        assert serial.h_aspl == parallel.h_aspl
        assert serial.graph == parallel.graph
        # wall_time_s is run-dependent; everything else is deterministic.
        for a, b in zip(serial.restarts, parallel.restarts):
            assert (a.index, a.seed_spawn_key, a.initial_h_aspl, a.h_aspl,
                    a.steps, a.accepted, a.rejected) == \
                   (b.index, b.seed_spawn_key, b.initial_h_aspl, b.h_aspl,
                    b.steps, b.accepted, b.rejected)

    def test_trivial_regimes_have_no_restarts(self):
        star = solve_orp(4, 8)  # n <= r: single switch, no search
        assert star.restarts == [] and star.annealing is None

    def test_solution_dataclass_default(self):
        assert ORPSolution.__dataclass_fields__["restarts"].default_factory is not None


class TestTelemetryMerge:
    @staticmethod
    def _traced(jobs: int):
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        sol = _solve(jobs=jobs, telemetry=reg)
        return sol, reg, sink

    def test_serial_accounts_for_every_restart(self):
        sol, reg, sink = self._traced(jobs=1)
        assert reg.counter("anneal.proposals").value == 3 * 120
        restarts = [e for e in sink.events if e.get("name") == "solver.restart"]
        assert [e["fields"]["index"] for e in restarts] == [0, 1, 2]
        (done,) = [e for e in sink.events if e.get("name") == "solver.done"]
        assert done["fields"]["best_h_aspl"] == sol.h_aspl
        assert not [e for e in sink.events if e.get("name") == "solver.progress"]

    def test_parallel_merge_matches_serial_totals(self):
        _, serial_reg, _ = self._traced(jobs=1)
        _, parallel_reg, psink = self._traced(jobs=3)
        for name in ("anneal.proposals", "anneal.accepted", "anneal.improved",
                     "evaluator.proposals", "evaluator.repaired_rows"):
            assert parallel_reg.counter(name).value == \
                serial_reg.counter(name).value, name
        s_hist = serial_reg._histograms["anneal.delta_accepted"]
        p_hist = parallel_reg._histograms["anneal.delta_accepted"]
        assert p_hist.counts == s_hist.counts
        restarts = [e for e in psink.events if e.get("name") == "solver.restart"]
        assert [e["fields"]["index"] for e in restarts] == [0, 1, 2]

    def test_restart_events_mirror_summaries(self):
        for jobs in (1, 2):
            sol, _, sink = self._traced(jobs=jobs)
            events = [e["fields"] for e in sink.events
                      if e.get("name") == "solver.restart"]
            assert len(events) == len(sol.restarts) == 3
            best = float("inf")
            for f, summary in zip(events, sol.restarts):
                assert f["index"] == summary.index
                assert f["seed_spawn_key"] == list(summary.seed_spawn_key)
                assert f["h_aspl"] == summary.h_aspl
                assert f["accepted"] == summary.accepted
                assert f["rejected"] == summary.rejected
                assert (f["n"], f["r"], f["m"], f["restarts"], f["seed"]) == (N, R, 10, 3, 11)
                best = min(best, summary.h_aspl)
                assert f["best_h_aspl"] == best

    def test_restart_event_names_an_int_seed_only(self):
        rng = np.random.default_rng(11)
        for seed, expected in ((11, 11), (rng, None)):
            reg = TelemetryRegistry()
            sink = MemorySink()
            reg.add_sink(sink)
            _solve(telemetry=reg, seed=seed, restarts=1)
            (event,) = [e["fields"] for e in sink.events if e.get("name") == "solver.restart"]
            assert event.get("seed") == expected

    def test_span_wraps_the_fan_out(self):
        _, _, sink = self._traced(jobs=1)
        spans = [e for e in sink.events if e.get("kind") == "span"]
        # Serial restarts anneal under the caller's registry, so each
        # anneal.run closes inside the fan-out span.
        assert [s["name"] for s in spans] == [
            "anneal.run"
        ] * 3 + ["solver.anneal_restarts"]
        assert spans[-1]["attrs"]["restarts"] == 3
        assert spans[-1]["depth"] == 0
        assert all(
            (s["depth"], s["parent"]) == (1, "solver.anneal_restarts")
            for s in spans[:-1]
        )


class TestSerialTraceIsLive:
    def test_records_arrive_as_they_happen_in_one_tree(self):
        from repro.core.annealing import AnnealingSchedule

        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        solve_orp(N, R, m=10, restarts=2, seed=11,
                  schedule=AnnealingSchedule(num_steps=400), telemetry=reg)
        names = [e["name"] for e in sink.events]
        fan_out = names.index("solver.anneal_restarts")
        heartbeats = [i for i, name in enumerate(names) if name == "anneal.heartbeat"]
        assert heartbeats and max(heartbeats) < fan_out
        runs = [e for e in sink.events if e["name"] == "anneal.run"]
        assert [(s["depth"], s["parent"]) for s in runs] == [
            (1, "solver.anneal_restarts")
        ] * 2
        # One tree: every second is counted once.
        (root,) = build_span_trees(sink.events)
        self_s = sum(row["self_s"] for row in span_rollup([root]).values())
        assert self_s == pytest.approx(root.duration_s, rel=0.01)

    def test_campaign_point_heartbeats_precede_its_span(self, tmp_path):
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import load_spec

        spec = load_spec({
            "name": "live", "grid": {"n": [24], "r": [6], "seed": [0, 1]},
            "defaults": {"steps": 300, "restarts": 2},
        })
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        run_campaign(spec, tmp_path, telemetry=reg, jobs=1)
        names = [e["name"] for e in sink.events]
        fan_outs = [i for i, name in enumerate(names) if name == "solver.anneal_restarts"]
        assert len(fan_outs) == 2
        # Each point's heartbeats land between the previous point's span
        # and its own.
        for start, end in zip([-1] + fan_outs, fan_outs):
            beats = [name for name in names[start + 1:end] if name == "anneal.heartbeat"]
            assert beats, (start, end)
        assert "anneal.heartbeat" not in names[fan_outs[-1]:]
