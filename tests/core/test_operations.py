"""Tests for swap / swing moves: legality, apply/undo, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import random_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.operations import SwapMove, SwingMove, propose_swap, propose_swing


def path_graph(num_switches: int = 4, hosts_per: int = 1, radix: int = 6):
    """Path of switches with hosts, handy for handcrafted moves."""
    g = HostSwitchGraph(num_switches, radix)
    for a in range(num_switches - 1):
        g.add_switch_edge(a, a + 1)
    for s in range(num_switches):
        for _ in range(hosts_per):
            g.attach_host(s)
    return g


def disjoint_edges_graph(radix: int = 6):
    """Four switches with only edges {0,1} and {2,3} (swap-friendly)."""
    g = HostSwitchGraph(4, radix)
    g.add_switch_edge(0, 1)
    g.add_switch_edge(2, 3)
    for s in range(4):
        g.attach_host(s)
    return g


class TestSwapMove:
    def test_apply_rewires(self):
        g = disjoint_edges_graph()
        move = SwapMove(0, 1, 2, 3)
        assert move.is_legal(g)
        move.apply(g)
        assert g.has_switch_edge(0, 3)
        assert g.has_switch_edge(1, 2)
        assert not g.has_switch_edge(0, 1)
        assert not g.has_switch_edge(2, 3)
        g.validate()

    def test_undo_restores_exactly(self):
        g = disjoint_edges_graph()
        before = g.copy()
        move = SwapMove(0, 1, 2, 3)
        move.apply(g)
        move.undo(g)
        assert g == before

    def test_degrees_preserved(self):
        g = disjoint_edges_graph()
        degrees = [g.switch_degree(s) for s in range(4)]
        SwapMove(0, 1, 2, 3).apply(g)
        assert [g.switch_degree(s) for s in range(4)] == degrees

    def test_illegal_when_edge_missing(self):
        g = disjoint_edges_graph()
        assert not SwapMove(0, 2, 1, 3).is_legal(g)

    def test_illegal_when_target_exists(self):
        g = disjoint_edges_graph()
        g.add_switch_edge(0, 3)
        assert not SwapMove(0, 1, 2, 3).is_legal(g)

    def test_illegal_in_path_where_target_edge_present(self):
        # In a path 0-1-2-3, the rewired edge {1,2} already exists.
        g = path_graph(4)
        assert not SwapMove(0, 1, 2, 3).is_legal(g)

    def test_illegal_on_shared_endpoint(self):
        g = disjoint_edges_graph()
        assert not SwapMove(0, 1, 1, 2).is_legal(g)


class TestSwingMove:
    def test_apply_moves_host_and_edge(self):
        g = path_graph(3, hosts_per=1)
        # swing(s0, s1, s2): edge {0,1} + host on 2 -> edge {0,2} + host on 1.
        move = SwingMove(0, 1, 2)
        assert move.is_legal(g)
        move.apply(g)
        assert g.has_switch_edge(0, 2)
        assert not g.has_switch_edge(0, 1)
        assert g.hosts_on(1) == 2
        assert g.hosts_on(2) == 0
        g.validate()

    def test_ports_preserved(self):
        g = path_graph(3, hosts_per=2)
        ports = [g.ports_used(s) for s in range(3)]
        SwingMove(0, 1, 2).apply(g)
        assert [g.ports_used(s) for s in range(3)] == ports

    def test_undo_restores_counts_and_edges(self):
        g = path_graph(3, hosts_per=2)
        move = SwingMove(0, 1, 2)
        move.apply(g)
        move.undo(g)
        assert g.has_switch_edge(0, 1)
        assert not g.has_switch_edge(0, 2)
        assert g.host_counts().tolist() == [2, 2, 2]

    def test_inverse_is_legal_after_apply(self):
        g = path_graph(3, hosts_per=1)
        move = SwingMove(0, 1, 2)
        move.apply(g)
        inv = move.inverse()
        assert inv.is_legal(g)
        inv.apply(g)
        assert g.host_counts().tolist() == [1, 1, 1]

    def test_illegal_without_host(self):
        g = HostSwitchGraph(3, 6)
        g.add_switch_edge(0, 1)
        g.add_switch_edge(1, 2)
        g.attach_host(0)
        assert not SwingMove(0, 1, 2).is_legal(g)  # no host on s2

    def test_illegal_when_new_edge_exists(self):
        g = path_graph(3)
        g.add_switch_edge(0, 2)
        assert not SwingMove(0, 1, 2).is_legal(g)

    def test_illegal_on_duplicate_switches(self):
        g = path_graph(3)
        assert not SwingMove(0, 1, 1).is_legal(g)
        assert not SwingMove(0, 0, 2).is_legal(g)


class TestProposals:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5_000))
    def test_proposed_swaps_are_legal_and_undoable(self, seed):
        rng = np.random.default_rng(seed)
        g = random_host_switch_graph(20, 6, 8, seed=seed)
        edges = [tuple(sorted(e)) for e in g.switch_edges()]
        before = g.copy()
        move = propose_swap(edges, rng, g)
        if move is not None:
            move.apply(g)
            g.validate()
            move.undo(g)
        assert g == before

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5_000))
    def test_proposed_swings_are_legal_and_undoable(self, seed):
        rng = np.random.default_rng(seed)
        g = random_host_switch_graph(20, 6, 8, seed=seed)
        edges = [tuple(sorted(e)) for e in g.switch_edges()]
        before = g.copy()
        move = propose_swing(edges, rng, g)
        if move is not None:
            host_count_before = g.num_hosts
            move.apply(g)
            g.validate()
            assert g.num_hosts == host_count_before
            move.undo(g)
        assert g == before

    def test_propose_swap_needs_two_edges(self):
        g = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [0, 1])
        rng = np.random.default_rng(0)
        assert propose_swap([(0, 1)], rng, g) is None

    def test_propose_swing_needs_edges_and_hosts(self):
        g = HostSwitchGraph(2, 4)
        rng = np.random.default_rng(0)
        assert propose_swing([], rng, g) is None

    @pytest.mark.parametrize("seed", [0, 7])
    def test_two_scalar_draws_equal_one_pair_draw(self, seed):
        """Two ``integers(0, n)`` calls replay one ``integers(0, n, size=2)`` call.

        The proposal draws rely on it: the pair is drawn as two scalars
        (cheaper) without moving the PCG64 stream, interleaved with the
        orientation coin flips and the Metropolis ``random()`` draws.
        """
        pairs, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
        sizes = np.random.default_rng(seed + 1).integers(2, 100_000, size=20_000)
        for t, n in enumerate(sizes.tolist()):
            i, j = pairs.integers(0, n, size=2)
            assert (scalars.integers(0, n), scalars.integers(0, n)) == (i, j)
            assert scalars.integers(0, 2) == pairs.integers(0, 2)
            if t % 3 == 0:
                assert scalars.random() == pairs.random()
        assert scalars.bit_generator.state == pairs.bit_generator.state
