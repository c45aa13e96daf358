"""Instrumentation accounting in anneal/evaluator/simulation/partition,
plus the disabled-telemetry O(1) overhead guard."""

from __future__ import annotations

from repro.core.annealing import AnnealingSchedule, anneal
from repro.core.construct import random_host_switch_graph
from repro.core.incremental import IncrementalEvaluator
from repro.obs import MemorySink, NullTelemetry, TelemetryRegistry
from repro.partition.kway import partition_host_switch
from repro.simulation.traffic import run_traffic


def _anneal(graph, steps: int, telemetry=None, **kwargs):
    return anneal(
        graph,
        schedule=AnnealingSchedule(num_steps=steps, initial_temperature=0.05),
        seed=3,
        telemetry=telemetry,
        **kwargs,
    )


class TestAnnealAccounting:
    def test_counters_match_result(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        reg = TelemetryRegistry()
        result = _anneal(g, 400, telemetry=reg)
        assert reg.counter("anneal.proposals").value == result.steps == 400
        assert reg.counter("anneal.accepted").value == result.accepted
        assert reg.counter("anneal.improved").value == result.improved
        move_total = sum(
            reg.counter(f"anneal.moves.{kind}").value
            for kind in ("swap", "swing", "swing2")
        )
        assert move_total == result.accepted

    def test_delta_histogram_counts_accepted_moves(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        reg = TelemetryRegistry()
        result = _anneal(g, 400, telemetry=reg)
        hist = reg._histograms["anneal.delta_accepted"]
        assert hist.count == result.accepted

    def test_phase_events_bounded_and_account_for_all_steps(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        result = _anneal(g, 1000, telemetry=reg)
        phases = [e for e in sink.events if e.get("name") == "anneal.phase"]
        assert 1 <= len(phases) <= 12  # _TELEMETRY_PHASES windows (+ tail)
        assert sum(p["fields"]["proposed"] for p in phases) == result.steps
        assert sum(p["fields"]["accepted"] for p in phases) == result.accepted
        for p in phases:
            assert 0.0 <= p["fields"]["acceptance_rate"] <= 1.0
            assert p["fields"]["temperature"] > 0

    def test_done_event_and_wall_time(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        result = _anneal(g, 200, telemetry=reg)
        (done,) = [e for e in sink.events if e.get("name") == "anneal.done"]
        assert done["fields"]["best_h_aspl"] == result.h_aspl
        assert done["fields"]["steps"] == result.steps
        assert result.wall_time_s > 0
        assert reg.timer("anneal.wall_s").total_s == result.wall_time_s

    def test_telemetry_never_touches_rng(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        plain = _anneal(g, 300)
        traced = _anneal(g, 300, telemetry=TelemetryRegistry())
        assert traced.h_aspl == plain.h_aspl
        assert traced.accepted == plain.accepted
        assert traced.graph == plain.graph


class TestEvaluatorInstrumentation:
    def test_repair_counters_flow_through_anneal(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        reg = TelemetryRegistry()
        result = _anneal(g, 300, telemetry=reg)
        proposals = reg.counter("evaluator.proposals").value
        # Early-bail steps never reach the evaluator, but every committed
        # move was proposed at least once.
        assert proposals >= result.accepted > 0
        assert reg.counter("evaluator.repaired_rows").value > 0
        hist = reg._histograms["evaluator.repaired_rows_per_move"]
        assert hist.count > 0

    def test_direct_evaluator_histogram(self):
        g = random_host_switch_graph(16, 5, 8, seed=1)
        reg = TelemetryRegistry()
        inc = IncrementalEvaluator(g, telemetry=reg)
        assert inc.stats["proposals"] == 0
        hist = reg._histograms["evaluator.repaired_rows_per_move"]
        assert hist.count == 0  # nothing proposed yet


class _CountingDisabledRegistry(NullTelemetry):
    """Disabled registry that counts instrument/event/span API calls."""

    def __init__(self) -> None:
        self.calls = 0

    def counter(self, name):
        self.calls += 1
        return super().counter(name)

    def gauge(self, name):
        self.calls += 1
        return super().gauge(name)

    def timer(self, name):
        self.calls += 1
        return super().timer(name)

    def histogram(self, name, bounds):
        self.calls += 1
        return super().histogram(name, bounds)

    def event(self, name, **fields):
        self.calls += 1
        super().event(name, **fields)

    def span(self, name, **attrs):
        self.calls += 1
        return super().span(name, **attrs)


class TestDisabledOverheadGuard:
    def test_disabled_anneal_makes_constant_registry_calls(self):
        # The disabled path must cost O(1) registry traffic, independent of
        # num_steps: a 10x longer run may not add a single API call.
        g = random_host_switch_graph(20, 6, 8, seed=3)
        short = _CountingDisabledRegistry()
        _anneal(g, 200, telemetry=short)
        long = _CountingDisabledRegistry()
        _anneal(g, 2000, telemetry=long)
        assert short.calls == long.calls == 0

    def test_disabled_run_identical_to_untraced(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        plain = _anneal(g, 300)
        disabled = _anneal(g, 300, telemetry=NullTelemetry())
        assert disabled.h_aspl == plain.h_aspl
        assert disabled.accepted == plain.accepted


class TestSimulationInstrumentation:
    def test_traffic_run_emits_sim_metrics(self):
        g = random_host_switch_graph(16, 5, 8, seed=1)
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        res = run_traffic(g, "uniform", messages_per_host=4, seed=0,
                          telemetry=reg)
        assert reg.counter("sim.events_fired").value > 0
        assert reg.gauge("sim.time_s").value == res.duration_s
        assert reg.timer("sim.wall_s").count == 1
        (done,) = [e for e in sink.events if e.get("name") == "traffic.done"]
        assert done["fields"]["pattern"] == "uniform"

    def test_traffic_disabled_identical(self):
        g = random_host_switch_graph(16, 5, 8, seed=1)
        plain = run_traffic(g, "uniform", messages_per_host=4, seed=0)
        traced = run_traffic(g, "uniform", messages_per_host=4, seed=0,
                             telemetry=TelemetryRegistry())
        assert traced.mean_latency_s == plain.mean_latency_s


class TestPartitionInstrumentation:
    def test_trials_and_trajectory(self):
        g = random_host_switch_graph(32, 10, 8, seed=2)
        reg = TelemetryRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        parts, cut = partition_host_switch(g, 4, seed=0, trials=3,
                                           telemetry=reg)
        assert reg.counter("partition.trials").value == 3
        assert reg.counter("partition.fm_passes").value > 0
        trial_events = [e for e in sink.events
                        if e.get("name") == "partition.trial"]
        assert len(trial_events) == 3
        assert min(e["fields"]["cut"] for e in trial_events) == cut
        (done,) = [e for e in sink.events if e.get("name") == "partition.done"]
        assert done["fields"]["best_cut"] == cut

    def test_partition_disabled_identical(self):
        g = random_host_switch_graph(32, 10, 8, seed=2)
        plain = partition_host_switch(g, 4, seed=0, trials=2)
        traced = partition_host_switch(g, 4, seed=0, trials=2,
                                       telemetry=TelemetryRegistry())
        assert traced == plain
