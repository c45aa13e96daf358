"""Tests for the simulated-annealing ORP search."""

from __future__ import annotations

import pytest

from repro.core.annealing import AnnealingResult, AnnealingSchedule, anneal
from repro.core.annealing import _EdgeList
from repro.core.bounds import h_aspl_lower_bound
from repro.core.construct import (
    random_host_switch_graph,
    random_regular_host_switch_graph,
)
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import h_aspl
from repro.core.operations import SwapMove, SwingMove
from tests.conftest import checked_anneal


class TestSchedule:
    def test_endpoints(self):
        s = AnnealingSchedule(num_steps=100, initial_temperature=0.1, final_temperature=0.001)
        assert s.temperature(0) == pytest.approx(0.1)
        assert s.temperature(99) == pytest.approx(0.001)

    def test_monotone_decrease(self):
        s = AnnealingSchedule(num_steps=50)
        temps = [s.temperature(i) for i in range(50)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(num_steps=0)
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0.01, final_temperature=0.1)

    def test_single_step(self):
        s = AnnealingSchedule(num_steps=1, initial_temperature=0.2)
        assert s.temperature(0) == 0.2


class TestEdgeList:
    def test_tracks_graph_edges(self):
        g = random_host_switch_graph(12, 5, 6, seed=0)
        el = _EdgeList(g)
        assert sorted(el.edges) == sorted(tuple(sorted(e)) for e in g.switch_edges())

    def test_add_remove_roundtrip(self):
        g = HostSwitchGraph.from_edges(4, 4, [(0, 1), (2, 3)], [0, 1, 2, 3])
        el = _EdgeList(g)
        el.remove(1, 0)
        el.add(1, 2)
        assert sorted(el.edges) == [(1, 2), (2, 3)]

    def test_apply_swap_and_swing_sync(self):
        g = HostSwitchGraph.from_edges(4, 6, [(0, 1), (2, 3)], [0, 1, 2, 3])
        el = _EdgeList(g)
        swap = SwapMove(0, 1, 2, 3)
        swap.apply(g)
        el.apply_swap(swap)
        assert sorted(el.edges) == sorted(tuple(sorted(e)) for e in g.switch_edges())
        swing = SwingMove(0, 3, 1)
        assert swing.is_legal(g)
        swing.apply(g)
        el.apply_swing(swing)
        assert sorted(el.edges) == sorted(tuple(sorted(e)) for e in g.switch_edges())


class TestAnneal:
    @pytest.mark.parametrize("operation", ["swap", "swing", "two-neighbor-swing"])
    def test_never_worse_than_start(self, operation):
        g = random_host_switch_graph(24, 8, 7, seed=1)
        start = h_aspl(g)
        result = anneal(
            g,
            operation=operation,
            schedule=AnnealingSchedule(num_steps=300),
            seed=2,
        )
        assert result.h_aspl <= start + 1e-12
        assert result.h_aspl >= h_aspl_lower_bound(24, 7) - 1e-12
        result.graph.validate()

    def test_input_graph_not_mutated(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        before = g.copy()
        anneal(g, schedule=AnnealingSchedule(num_steps=100), seed=0)
        assert g == before

    def test_deterministic_under_seed(self):
        g = random_host_switch_graph(20, 6, 8, seed=3)
        r1 = anneal(g, schedule=AnnealingSchedule(num_steps=200), seed=11)
        r2 = anneal(g, schedule=AnnealingSchedule(num_steps=200), seed=11)
        assert r1.h_aspl == r2.h_aspl
        assert r1.graph == r2.graph

    def test_swap_preserves_regularity(self):
        g = random_regular_host_switch_graph(24, 8, 6, seed=5)
        result = anneal(
            g, operation="swap", schedule=AnnealingSchedule(num_steps=300), seed=6
        )
        out = result.graph
        assert all(out.hosts_on(s) == 3 for s in range(8))
        assert all(out.switch_degree(s) == 3 for s in range(8))

    def test_two_neighbor_swing_can_change_host_counts(self):
        g = random_host_switch_graph(30, 10, 6, seed=7)
        start_counts = sorted(g.host_counts().tolist())
        result = anneal(
            g, schedule=AnnealingSchedule(num_steps=600, initial_temperature=0.1), seed=8
        )
        # With hosts initially even, a meaningful search at this radix
        # virtually always ends with a different distribution; tolerate the
        # rare identical outcome but require a strict improvement then.
        end_counts = sorted(result.graph.host_counts().tolist())
        assert end_counts != start_counts or result.h_aspl < h_aspl(g)

    def test_history_recording(self):
        g = random_host_switch_graph(20, 6, 8, seed=9)
        result = anneal(
            g, schedule=AnnealingSchedule(num_steps=100), seed=1, history_every=10
        )
        # Ticks at 0, 10, ..., 90 plus the always-recorded terminal step 99.
        assert len(result.history) == 11
        steps = [h[0] for h in result.history]
        assert steps == sorted(steps)
        assert steps[-1] == result.steps - 1
        bests = [h[2] for h in result.history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_history_terminal_sample_on_target_break(self):
        g = random_host_switch_graph(10, 3, 8, seed=10)
        bound = h_aspl_lower_bound(10, 8)
        result = anneal(
            g,
            schedule=AnnealingSchedule(num_steps=5000),
            seed=2,
            target=bound,
            history_every=1000,
        )
        assert result.history[-1][0] == result.steps - 1
        assert result.history[-1][2] == result.h_aspl

    def test_history_not_duplicated_when_last_step_is_a_tick(self):
        g = random_host_switch_graph(20, 6, 8, seed=9)
        # 100 steps, every 99 -> ticks at 0 and 99; terminal step 99 must
        # not be appended twice.
        result = anneal(
            g, schedule=AnnealingSchedule(num_steps=100), seed=1, history_every=99
        )
        steps = [h[0] for h in result.history]
        assert steps == [0, 99]

    def test_target_early_stop(self):
        # Clique-capable instance reaches its bound quickly.
        g = random_host_switch_graph(10, 3, 8, seed=10)
        bound = h_aspl_lower_bound(10, 8)
        result = anneal(
            g, schedule=AnnealingSchedule(num_steps=5000), seed=2, target=bound
        )
        if result.h_aspl <= bound + 1e-12:
            assert result.steps <= 5000

    def test_unknown_operation_rejected(self):
        g = random_host_switch_graph(10, 3, 8, seed=0)
        with pytest.raises(ValueError, match="operation"):
            anneal(g, operation="teleport")

    def test_disconnected_start_rejected(self):
        g = HostSwitchGraph.from_edges(2, 4, [], [0, 1])
        with pytest.raises(ValueError, match="disconnected"):
            anneal(g)

    def test_result_counters_consistent(self):
        g = random_host_switch_graph(20, 6, 8, seed=12)
        result = anneal(g, schedule=AnnealingSchedule(num_steps=200), seed=3)
        assert isinstance(result, AnnealingResult)
        assert 0 <= result.improved <= result.accepted <= result.steps
        assert result.initial_h_aspl >= result.h_aspl


class TestEvaluatorEquivalence:
    """Annealing under the checked evaluator is bit-identical to a plain run.

    :class:`tests.conftest.CheckedEvaluator` verifies every proposal against
    the reference kernel and the brute-force h-ASPL, and every commit for
    switch-graph connectivity; it returns the evaluator's own values, so
    the checked run must consume the same Metropolis draws and walk the
    same trajectory.
    """

    @pytest.mark.parametrize("operation", ["swap", "swing", "two-neighbor-swing"])
    def test_bit_identical_runs(self, operation):
        g = random_host_switch_graph(48, 14, 6, seed=4)
        schedule = AnnealingSchedule(num_steps=500)
        inc = anneal(
            g, operation=operation, schedule=schedule, seed=21, history_every=13
        )
        checked = checked_anneal(
            g, operation=operation, schedule=schedule, seed=21, history_every=13
        )
        assert inc.h_aspl == checked.h_aspl
        assert inc.diameter == checked.diameter
        assert inc.accepted == checked.accepted
        assert inc.improved == checked.improved
        assert inc.graph == checked.graph
        assert inc.history == checked.history

    def test_bit_identical_with_hostless_switches(self):
        # More switch capacity than hosts: hostless switches force the
        # whole-graph connectivity check and the two-neighbor direct-swap
        # fallback into play.
        g = random_host_switch_graph(18, 20, 5, seed=6)
        assert (g.host_counts() == 0).any()
        schedule = AnnealingSchedule(num_steps=400)
        inc = anneal(g, schedule=schedule, seed=9)
        checked = checked_anneal(g, schedule=schedule, seed=9)
        assert inc.h_aspl == checked.h_aspl
        assert inc.diameter == checked.diameter
        assert inc.accepted == checked.accepted
        assert inc.graph == checked.graph


def _petersen_start() -> HostSwitchGraph:
    """Petersen switch graph (outer 5-cycle, spokes, inner pentagram), r=4.

    One host per switch, so the start has no hostless switch; swings can
    empty switches later.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return HostSwitchGraph.from_edges(10, 4, edges, list(range(10)))


class TestConnectivityInvariant:
    """Every committed state keeps the switch graph connected.

    A start without hostless switches once skipped the connectivity check
    for the whole run, so a swing that emptied switches could split off a
    hostless component (here a K5) and commit it with a finite h-ASPL.
    """

    @pytest.mark.parametrize(
        "operation,seed",
        [("two-neighbor-swing", 99), ("two-neighbor-swing", 217), ("swing", 299)],
    )
    def test_hostless_component_never_committed(self, operation, seed):
        start = _petersen_start()
        assert start.host_counts().all() and start.is_switch_graph_connected()
        schedule = AnnealingSchedule(
            num_steps=3000, initial_temperature=20.0, final_temperature=5.0
        )
        result = anneal(start, operation=operation, schedule=schedule, seed=seed)
        assert result.graph.is_switch_graph_connected()
