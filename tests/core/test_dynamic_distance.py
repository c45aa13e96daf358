"""Unit tests for :class:`repro.core.incremental.DynamicDistanceMatrix`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construct import random_regular_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import DynamicDistanceMatrix
from repro.core.metrics import switch_distance_matrix


def exact(graph: HostSwitchGraph, removed=()) -> np.ndarray:
    """From-scratch distances on graph minus ``removed`` switch edges."""
    g = graph.copy()
    for a, b in removed:
        g.remove_switch_edge(a, b)
    return switch_distance_matrix(g)


class TestConstruction:
    def test_initial_matrix_matches_apsp(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        assert np.array_equal(ddm.dist, switch_distance_matrix(fig1_graph))
        assert ddm.num_switches == fig1_graph.num_switches
        assert ddm.is_connected()

    def test_dist_is_a_live_view(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        view = ddm.dist
        ddm.remove_edge(0, 1)
        assert np.array_equal(view, ddm.dist)  # same array, mutated in place
        assert view is ddm.dist


class TestRemoveAdd:
    def test_remove_matches_rebuild(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        ddm.remove_edge(0, 1)
        assert np.array_equal(ddm.dist, exact(fig1_graph, [(0, 1)]))

    def test_remove_then_add_restores_exactly(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        before = ddm.dist.copy()
        ddm.remove_edge(1, 2)
        ddm.add_edge(1, 2)
        assert np.array_equal(ddm.dist, before)

    def test_disconnecting_removal_yields_inf(self):
        g = HostSwitchGraph(2, radix=3)
        g.add_switch_edge(0, 1)
        g.attach_host(0)
        g.attach_host(1)
        ddm = DynamicDistanceMatrix(g)
        ddm.remove_edge(0, 1)
        assert np.isinf(ddm.dist[0, 1])
        assert not ddm.is_connected()
        ddm.add_edge(0, 1)
        assert ddm.dist[0, 1] == 1.0

    def test_random_remove_add_walk_stays_exact(self):
        graph = random_regular_host_switch_graph(30, 10, 6, seed=5)
        ddm = DynamicDistanceMatrix(graph)
        rng = np.random.default_rng(6)
        edges = sorted(graph.switch_edges())
        removed: list[tuple[int, int]] = []
        for _ in range(40):
            if removed and rng.random() < 0.5:
                ddm.add_edge(*removed.pop(int(rng.integers(len(removed)))))
            else:
                a, b = edges[int(rng.integers(len(edges)))]
                if not ddm.has_edge(a, b):
                    continue
                ddm.remove_edge(a, b)
                removed.append((a, b))
            assert np.array_equal(ddm.dist, exact(graph, removed))

    def test_validation_errors(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        with pytest.raises(ValueError, match="no switch edge"):
            ddm.remove_edge(0, 2)  # ring: not an edge
        with pytest.raises(ValueError, match="already present"):
            ddm.add_edge(0, 1)
        with pytest.raises(ValueError, match="out of range"):
            ddm.remove_edge(0, 99)
        with pytest.raises(ValueError, match="self-loop"):
            ddm.remove_edge(1, 1)
        with pytest.raises(ValueError, match="out of range"):
            ddm.neighbors(99)


class TestIsConnected:
    """The row-0 read agrees with the graph's own walk."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_graph_walk_across_partition_and_repair(self, seed):
        graph = random_regular_host_switch_graph(30, 10, 6, seed=seed)
        mirror = graph.copy()
        ddm = DynamicDistanceMatrix(graph)
        rng = np.random.default_rng(seed)
        edges = sorted(graph.switch_edges())
        removed: list[tuple[int, int]] = []
        seen = set()
        for _ in range(80):
            roll = rng.random()
            if removed and roll < 0.4:
                edge = removed.pop(int(rng.integers(len(removed))))
                ddm.add_edge(*edge)
                mirror.add_switch_edge(*edge)
            elif roll < 0.5:
                for edge in ddm.remove_switch(int(rng.integers(graph.num_switches))):
                    mirror.remove_switch_edge(*edge)
                    removed.append(edge)
            else:
                edge = edges[int(rng.integers(len(edges)))]
                if not ddm.has_edge(*edge):
                    continue
                ddm.remove_edge(*edge)
                mirror.remove_switch_edge(*edge)
                removed.append(edge)
            connected = mirror.is_switch_graph_connected()
            assert ddm.is_connected() == connected
            seen.add(connected)
        assert seen == {True, False}


class TestRemoveSwitch:
    def test_returns_sorted_incident_edges(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        removed = ddm.remove_switch(1)
        assert removed == ((0, 1), (1, 2))
        assert np.array_equal(ddm.dist, exact(fig1_graph, removed))

    def test_readding_removed_edges_restores(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        before = ddm.dist.copy()
        removed = ddm.remove_switch(2)
        for a, b in removed:
            ddm.add_edge(a, b)
        assert np.array_equal(ddm.dist, before)

    def test_isolated_switch_rows_are_inf(self, fig1_graph):
        ddm = DynamicDistanceMatrix(fig1_graph)
        ddm.remove_switch(3)
        others = [0, 1, 2]
        assert np.isinf(ddm.dist[3, others]).all()
        assert np.isinf(ddm.dist[others, 3]).all()
        assert ddm.dist[3, 3] == 0.0
