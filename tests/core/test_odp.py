"""Tests for the Order/Degree Problem solver (GraphGolf-style extension)."""

from __future__ import annotations

import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.odp import ODPSolution, odp_aspl_lower_bound, solve_odp


class TestSolveODP:
    def test_complete_graph_regime(self):
        # n=6, d=5: the only 5-regular graph on 6 vertices is K6 (ASPL 1).
        sol = solve_odp(6, 5, schedule=AnnealingSchedule(num_steps=50), seed=0)
        assert sol.aspl == pytest.approx(1.0)
        assert sol.diameter == 1

    def test_petersen_parameters_reach_moore_bound(self):
        # (10, 3) admits the Petersen graph, which meets the Moore bound
        # ASPL 5/3; a modest SA budget finds it (or an equal-ASPL graph).
        sol = solve_odp(
            10, 3, schedule=AnnealingSchedule(num_steps=3_000), restarts=3, seed=1
        )
        assert sol.aspl == pytest.approx(5 / 3, abs=0.08)
        assert sol.aspl >= odp_aspl_lower_bound(10, 3) - 1e-12

    def test_output_is_regular_graph(self):
        sol = solve_odp(16, 4, schedule=AnnealingSchedule(num_steps=300), seed=2)
        degree = {}
        for a, b in sol.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(degree[v] == 4 for v in range(16))
        assert len(sol.edges) == 16 * 4 // 2

    def test_beats_random_start(self):
        from repro.core.construct import random_regular_switch_topology
        from repro.core.hostswitch import HostSwitchGraph
        from repro.core.metrics import switch_aspl

        edges = random_regular_switch_topology(24, 3, seed=3)
        g = HostSwitchGraph(24, 4)
        for a, b in edges:
            g.add_switch_edge(a, b)
        start_aspl = switch_aspl(g)
        sol = solve_odp(24, 3, schedule=AnnealingSchedule(num_steps=1_500), seed=3)
        assert sol.aspl <= start_aspl + 1e-9

    def test_gap_and_summary(self):
        sol = solve_odp(16, 4, schedule=AnnealingSchedule(num_steps=200), seed=4)
        assert sol.gap >= -1e-12
        text = sol.summary()
        assert "ODP(n=16, d=4)" in text and "ASPL" in text

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="must be <"):
            solve_odp(8, 8)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_invalid_restarts_rejected(self, restarts):
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            solve_odp(16, 4, restarts=restarts)

    def test_deterministic_under_seed(self):
        a = solve_odp(16, 4, schedule=AnnealingSchedule(num_steps=200), seed=7)
        b = solve_odp(16, 4, schedule=AnnealingSchedule(num_steps=200), seed=7)
        assert a.aspl == b.aspl
        assert a.edges == b.edges

    def test_embedding_identity(self):
        # h-ASPL of the embedding equals ODP ASPL + 2 (Formula 1 at n = m).
        sol = solve_odp(12, 3, schedule=AnnealingSchedule(num_steps=200), seed=8)
        assert sol.annealing.h_aspl == pytest.approx(sol.aspl + 2.0)
