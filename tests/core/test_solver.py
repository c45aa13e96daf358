"""Tests for the end-to-end ORP solver."""

from __future__ import annotations

import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.metrics import h_aspl
from repro.core.solver import solve_orp


class TestTrivialRegimes:
    def test_star_regime(self):
        sol = solve_orp(6, 8, seed=0)
        assert sol.m == 1
        assert sol.h_aspl == 2.0
        assert sol.h_aspl == sol.h_aspl_lower_bound
        assert sol.annealing is None

    def test_clique_regime(self):
        # n=20, r=8: clique of m=4 (capacity 4*5=20) fits exactly.
        sol = solve_orp(20, 8, seed=0)
        assert sol.annealing is None
        m = sol.m
        assert sol.graph.num_switch_edges == m * (m - 1) // 2
        # Clique optimality (Theorem 3): diameter 3, h-ASPL < 3.
        assert sol.h_aspl < 3.0

    def test_solution_graph_is_valid(self):
        sol = solve_orp(20, 8, seed=0)
        sol.graph.validate()
        assert sol.graph.num_hosts == 20


class TestSearchRegime:
    def test_uses_predicted_m_by_default(self):
        sol = solve_orp(
            64, 8, schedule=AnnealingSchedule(num_steps=200), seed=1
        )
        assert sol.m == sol.m_predicted
        assert sol.graph.num_switches == sol.m
        assert sol.annealing is not None

    def test_m_override(self):
        sol = solve_orp(
            64, 8, m=30, schedule=AnnealingSchedule(num_steps=200), seed=1
        )
        assert sol.m == 30

    def test_bounds_respected(self):
        sol = solve_orp(64, 8, schedule=AnnealingSchedule(num_steps=400), seed=2)
        assert sol.h_aspl >= sol.h_aspl_lower_bound - 1e-9
        assert sol.diameter >= sol.diameter_lower_bound
        assert sol.gap >= -1e-12

    def test_restarts_keep_best(self):
        sol1 = solve_orp(48, 8, schedule=AnnealingSchedule(num_steps=150), seed=3)
        sol3 = solve_orp(
            48, 8, schedule=AnnealingSchedule(num_steps=150), restarts=3, seed=3
        )
        assert sol3.h_aspl <= sol1.h_aspl + 1e-9

    def test_deterministic_under_seed(self):
        a = solve_orp(48, 8, schedule=AnnealingSchedule(num_steps=150), seed=9)
        b = solve_orp(48, 8, schedule=AnnealingSchedule(num_steps=150), seed=9)
        assert a.h_aspl == b.h_aspl
        assert a.graph == b.graph

    def test_summary_mentions_key_numbers(self):
        sol = solve_orp(48, 8, schedule=AnnealingSchedule(num_steps=100), seed=4)
        text = sol.summary()
        assert "n=48" in text and "r=8" in text
        assert "h-ASPL" in text and "diameter" in text

    def test_search_beats_naive_random(self):
        from repro.core.construct import random_host_switch_graph

        sol = solve_orp(96, 8, schedule=AnnealingSchedule(num_steps=800), seed=5)
        naive = random_host_switch_graph(96, sol.m, 8, seed=5)
        assert sol.h_aspl < h_aspl(naive)


class TestParallelRestarts:
    def test_parallel_matches_serial(self):
        # Restart seeds are spawned from one master SeedSequence, so the
        # process-pool fan-out must return the same best graph as the
        # serial loop for the same master seed.
        schedule = AnnealingSchedule(num_steps=150)
        serial = solve_orp(48, 8, schedule=schedule, restarts=4, seed=3)
        parallel = solve_orp(48, 8, schedule=schedule, restarts=4, jobs=4, seed=3)
        assert serial.h_aspl == parallel.h_aspl
        assert serial.diameter == parallel.diameter
        assert serial.graph == parallel.graph

    def test_jobs_capped_by_restarts(self):
        schedule = AnnealingSchedule(num_steps=100)
        sol = solve_orp(48, 8, schedule=schedule, restarts=2, jobs=16, seed=1)
        serial = solve_orp(48, 8, schedule=schedule, restarts=2, seed=1)
        assert sol.graph == serial.graph

    def test_first_restart_stable_across_restart_counts(self):
        # spawn(k)[0] is the same child for every k: adding restarts only
        # adds candidates, it never perturbs earlier trajectories.
        schedule = AnnealingSchedule(num_steps=120)
        one = solve_orp(48, 8, schedule=schedule, restarts=1, seed=7)
        three = solve_orp(48, 8, schedule=schedule, restarts=3, seed=7)
        assert three.h_aspl <= one.h_aspl + 1e-12

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            solve_orp(48, 8, jobs=0, seed=0)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_invalid_restarts_rejected(self, restarts):
        # No silent clamp to one restart.
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            solve_orp(40, 6, restarts=restarts, seed=0)
