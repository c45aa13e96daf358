"""Degraded-mode routing tables: faults, incremental repair, diversity.

The core property here is the PR's acceptance criterion: incremental
``apply_fault``/``repair`` on a degraded :class:`RoutingTables` must be
bit-identical to rebuilding the tables from scratch on the faulted graph
with the reference BFS kernel, over hundreds of random fault/repair
sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construct import random_regular_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import CSRAdjacency
from repro.faults import link_down, switch_down
from repro.routing import RoutingTables, UnreachableError
from repro.routing.valiant import valiant_switch_route
from tests.conftest import REFERENCE_KERNEL


def path_graph(num_switches: int, hosts_per_switch: int = 1) -> HostSwitchGraph:
    """A line of switches — maximal diameter, minimal diversity."""
    g = HostSwitchGraph(num_switches, radix=hosts_per_switch + 2)
    for s in range(num_switches - 1):
        g.add_switch_edge(s, s + 1)
    for s in range(num_switches):
        for _ in range(hosts_per_switch):
            g.attach_host(s)
    return g


def reference_state(tables: RoutingTables):
    """(distances, neighbour lists) rebuilt from scratch on the faulted graph.

    The faulted graph is the original minus every physically-down link and
    the dead switches' incident links (dead switches stay as isolated
    vertices so switch ids line up).
    """
    graph = tables.graph
    m = graph.num_switches
    down = set(tables.failed_links)
    for s in tables.dead_switches:
        for t in graph.neighbors(s):
            down.add((s, t) if s < t else (t, s))
    faulted = HostSwitchGraph(m, graph.radix)
    for a, b in graph.switch_edges():
        if ((a, b) if a < b else (b, a)) not in down:
            faulted.add_switch_edge(a, b)
    for h in range(graph.num_hosts):
        faulted.attach_host(graph.host_attachment(h))
    dist = REFERENCE_KERNEL.bfs_distances(CSRAdjacency.from_graph(faulted), np.arange(m))
    nbrs = [sorted(faulted.neighbors(s)) for s in range(m)]
    return dist, nbrs


def assert_matches_rebuild(tables: RoutingTables) -> None:
    dist, nbrs = reference_state(tables)
    assert np.array_equal(tables._dist, dist), "distance matrix diverged"
    assert tables._nbrs == nbrs, "neighbour lists diverged"


class TestDegradedBasics:
    def test_default_mode_rejects_disconnected(self):
        g = HostSwitchGraph(2, radix=4)
        g.attach_host(0)
        g.attach_host(1)
        with pytest.raises(ValueError, match="disconnected"):
            RoutingTables(g)
        tables = RoutingTables(g, degraded=True)
        assert not tables.reachable(0, 1)
        assert tables.distance(0, 1) == float("inf")
        assert tables.next_hops(0, 1) == []

    def test_fault_api_requires_degraded(self, fig1_graph):
        tables = RoutingTables(fig1_graph)
        with pytest.raises(RuntimeError, match="degraded=True"):
            tables.fail_link(0, 1)
        with pytest.raises(RuntimeError, match="degraded=True"):
            tables.fail_switch(0)

    def test_unreachable_route_raises(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        # Cutting both ring links around switch 2 isolates it.
        tables.fail_link(1, 2)
        tables.fail_link(2, 3)
        assert not tables.reachable(0, 2)
        with pytest.raises(UnreachableError, match="unreachable"):
            tables.switch_route(0, 2)
        # The rest of the ring still routes.
        assert tables.switch_route(1, 3) in ([1, 0, 3],)

    def test_double_fault_and_bad_repair_rejected(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        tables.fail_link(0, 1)
        with pytest.raises(ValueError, match="already failed"):
            tables.fail_link(1, 0)
        with pytest.raises(ValueError, match="not failed"):
            tables.repair_link(1, 2)
        tables.fail_switch(3)
        with pytest.raises(ValueError, match="already dead"):
            tables.fail_switch(3)
        with pytest.raises(ValueError, match="not dead"):
            tables.repair_switch(2)

    def test_dead_switch_link_failure_is_recorded_not_physical(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        downed = tables.fail_switch(1)
        assert downed == [(0, 1), (1, 2)]
        # Link (0,1) is already physically down; the explicit failure is
        # recorded but changes nothing now...
        assert tables.fail_link(0, 1) == []
        # ...and keeps the link down when the switch comes back.
        restored = tables.repair_switch(1)
        assert restored == [(1, 2)]
        assert tables.failed_links == frozenset({(0, 1)})
        assert_matches_rebuild(tables)

    def test_apply_fault_and_repair_round_trip(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        baseline = tables._dist.copy()
        event = switch_down(0.0, 2)
        downed, restored = tables.apply_fault(event)
        assert downed and not restored
        downed, restored = tables.repair(event)
        assert restored and not downed
        assert np.array_equal(tables._dist, baseline)
        assert_matches_rebuild(tables)


class TestIncrementalMatchesRebuild:
    """Acceptance criterion: >= 200 random fault/repair sequences."""

    @pytest.mark.parametrize("graph_seed", range(4))
    def test_random_fault_repair_sequences(self, graph_seed):
        graph = random_regular_host_switch_graph(36, 12, 7, seed=graph_seed)
        tables = RoutingTables(graph, degraded=True)
        rng = np.random.default_rng(100 + graph_seed)
        edges = sorted(graph.switch_edges())
        outstanding = []  # FaultEvents currently applied, repairable
        checks = 0
        for step in range(60):
            repairable = len(outstanding) > 0
            if repairable and rng.random() < 0.45:
                event = outstanding.pop(int(rng.integers(len(outstanding))))
                tables.repair(event)
            elif rng.random() < 0.5:
                a, b = edges[int(rng.integers(len(edges)))]
                if (a, b) in tables.failed_links:
                    continue
                event = link_down(float(step), a, b)
                tables.apply_fault(event)
                outstanding.append(event)
            else:
                s = int(rng.integers(graph.num_switches))
                if s in tables.dead_switches:
                    continue
                event = switch_down(float(step), s)
                tables.apply_fault(event)
                outstanding.append(event)
            assert_matches_rebuild(tables)
            checks += 1
        # 4 graphs x >=50 verified transitions >= 200 sequences total.
        assert checks >= 50
        for event in reversed(outstanding):
            tables.repair(event)
        assert_matches_rebuild(tables)

    def test_repair_all_restores_pristine_state(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        pristine_dist = tables._dist.copy()
        pristine_nbrs = [list(n) for n in tables._nbrs]
        events = [link_down(0.0, 0, 1), switch_down(1.0, 2)]
        for event in events:
            tables.apply_fault(event)
        for event in reversed(events):
            tables.repair(event)
        assert np.array_equal(tables._dist, pristine_dist)
        assert tables._nbrs == pristine_nbrs
        assert tables.failed_links == frozenset()
        assert tables.dead_switches == frozenset()


class TestPathDiversity:
    def test_known_counts_on_ring(self, fig1_graph):
        tables = RoutingTables(fig1_graph)
        # Opposite corners of a 4-ring: two shortest paths.
        assert tables.path_diversity(0, 2) == 2
        assert tables.path_diversity(0, 1) == 1
        assert tables.path_diversity(0, 0) == 1

    def test_deep_path_graph_no_recursion_error(self):
        # Regression: the old recursive DP overflowed CPython's stack on
        # high-diameter fabrics.  2048 switches > the 1000-frame default.
        g = path_graph(2048)
        tables = RoutingTables(g)
        assert tables.path_diversity(0, g.num_switches - 1) == 1

    def test_diversity_zero_when_unreachable(self, fig1_graph):
        tables = RoutingTables(fig1_graph, degraded=True)
        tables.fail_link(1, 2)
        tables.fail_link(2, 3)
        assert tables.path_diversity(0, 2) == 0

    def test_grid_diversity_binomial(self):
        # 3x3 grid: corner-to-corner shortest paths = C(4, 2) = 6.
        g = HostSwitchGraph(9, radix=5)
        for r in range(3):
            for c in range(3):
                s = 3 * r + c
                if c < 2:
                    g.add_switch_edge(s, s + 1)
                if r < 2:
                    g.add_switch_edge(s, s + 3)
        g.attach_host(0)
        g.attach_host(8)
        tables = RoutingTables(g)
        assert tables.path_diversity(0, 8) == 6


class TestValiantSeeding:
    def test_rng_none_raises(self, fig1_graph):
        tables = RoutingTables(fig1_graph)
        with pytest.raises(ValueError, match="explicit rng"):
            valiant_switch_route(tables, 0, 2, rng=None)
        with pytest.raises(ValueError, match="explicit rng"):
            valiant_switch_route(tables, 0, 2)

    def test_int_seed_deterministic(self, fig1_graph):
        tables = RoutingTables(fig1_graph)
        a = valiant_switch_route(tables, 0, 2, rng=11)
        b = valiant_switch_route(tables, 0, 2, rng=11)
        assert a == b
        assert a[0] == 0 and a[-1] == 2
