"""Tests for graph constructions (star, clique, regular, random, fills)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import (
    clique_host_switch_graph,
    fill_hosts_dfs,
    fill_hosts_round_robin,
    fill_hosts_sequentially,
    minimum_clique_switch_count,
    random_host_switch_graph,
    random_regular_host_switch_graph,
    random_regular_switch_topology,
    spread_hosts_evenly,
    star_host_switch_graph,
)
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import h_aspl
from repro.core.serialization import graph_to_text


class TestStar:
    def test_star_h_aspl_is_two(self):
        g = star_host_switch_graph(6, 8)
        assert g.num_switches == 1
        assert h_aspl(g) == 2.0

    def test_star_requires_capacity(self):
        with pytest.raises(ValueError, match="n <= r"):
            star_host_switch_graph(9, 8)


class TestClique:
    def test_minimum_switch_count(self):
        # r=6: capacities m(7-m): 6, 10, 12, 12, 10, 6 -> n=11 needs m=3.
        assert minimum_clique_switch_count(6, 6) == 1
        assert minimum_clique_switch_count(7, 6) == 2
        assert minimum_clique_switch_count(11, 6) == 3

    def test_capacity_exceeded_raises(self):
        with pytest.raises(ValueError, match="no clique"):
            minimum_clique_switch_count(13, 6)  # max capacity is 12

    def test_clique_structure(self):
        g = clique_host_switch_graph(10, 6)
        m = g.num_switches
        assert g.num_switch_edges == m * (m - 1) // 2
        g.validate()
        assert g.num_hosts == 10

    def test_hosts_spread_evenly(self):
        g = clique_host_switch_graph(10, 6, m=3)
        counts = sorted(g.host_counts().tolist())
        assert counts == [3, 3, 4]

    def test_explicit_m_validated(self):
        with pytest.raises(ValueError, match="at most"):
            clique_host_switch_graph(50, 6, m=3)


class TestRegularTopology:
    def test_regular_topology_properties(self):
        edges = random_regular_switch_topology(10, 3, seed=0)
        degree = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(degree[v] == 3 for v in range(10))
        assert len(edges) == 15

    def test_odd_total_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_switch_topology(5, 3)

    def test_degree_bound(self):
        with pytest.raises(ValueError, match="must be <"):
            random_regular_switch_topology(4, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_regular_host_switch_graph_is_regular(self, seed):
        g = random_regular_host_switch_graph(n=24, m=8, r=6, seed=seed)
        g.validate()
        assert all(g.hosts_on(s) == 3 for s in range(8))
        assert all(g.switch_degree(s) == 3 for s in range(8))
        assert g.is_switch_graph_connected()

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="m | n"):
            random_regular_host_switch_graph(n=25, m=8, r=6)

    def test_no_ports_left_raises(self):
        with pytest.raises(ValueError, match="no switch ports"):
            random_regular_host_switch_graph(n=24, m=4, r=6)


class TestRandomGraph:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_graph_valid_and_connected(self, seed):
        g = random_host_switch_graph(n=30, m=9, r=8, seed=seed)
        g.validate()
        assert g.num_hosts == 30
        assert g.is_switch_graph_connected()
        assert h_aspl(g) < float("inf")

    def test_infeasible_configuration_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            random_host_switch_graph(n=100, m=4, r=5)

    def test_deterministic_under_seed(self):
        a = random_host_switch_graph(20, 6, 8, seed=42)
        b = random_host_switch_graph(20, 6, 8, seed=42)
        assert a == b

    def test_without_fill_edges_is_tree(self):
        g = random_host_switch_graph(10, 5, 8, seed=1, fill_edges=False)
        assert g.num_switch_edges == 4  # spanning tree on 5 switches

    # sha256 of the HSG text and of the switch_edges() order, taken from
    # the construction that rescanned every switch per edge and per host;
    # the maintained free lists and the host heap must reproduce both.
    @pytest.mark.parametrize(
        ("shape", "text_digest", "order_digest"),
        [
            (
                (4096, 734, 16, 0),
                "fe4e225183de65c446d29ff68728d9be0905743f3407e8f0d6669cef1947f4a3",
                "b6194b663e3a7bca21bd286bd1d19434db490f4fce4fb0dff757103d93cc69c4",
            ),
            (
                (4096, 734, 16, 1000003),
                "7b048b0bd1f749568dca26ac92c0598e1e343408a174d1c79232610e9aab3b7d",
                "ed8e7957e4bcf4bc20c4b996fe33f0b87f806f499a71b98327790d630f4c8c84",
            ),
            (
                (1024, 180, 15, 0),
                "16cbbf9bfd2a77fe0598c0a8ddb69c7b0065281b2a5ff142f9b9921c80aabaf1",
                "b5f0d0f4a4703e937fbecf5d983ec2f32625d6b410c2a9a84658333b5788fe12",
            ),
            (
                (256, 40, 10, 7),
                "78a120f9eb533e52054d0dc29707773d0ec62d40a1a9033e8280bcc3b47a61dd",
                "5b9ded9e1fe961feba5a32e0fcdc36c43b7f37a85c59eab76027c478f5fe5029",
            ),
        ],
    )
    def test_pinned_digests(self, shape, text_digest, order_digest):
        n, m, r, seed = shape
        g = random_host_switch_graph(n, m, r, seed=seed)
        order = " ".join(f"{a}-{b}" for a, b in g.switch_edges())
        assert hashlib.sha256(graph_to_text(g).encode()).hexdigest() == text_digest
        assert hashlib.sha256(order.encode()).hexdigest() == order_digest


class TestHostFills:
    """Placement helpers map free-port counts to one switch per host."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_spread_evenly_picks_like_a_full_scan(self, seed, n):
        # Reference: rescan every switch per host for the most free ports,
        # ties to the lowest id.
        g = random_host_switch_graph(24, 12, 7, seed=seed, fill_edges=False)
        free = [g.free_ports(s) for s in range(g.num_switches)]
        n = min(n, sum(free))
        left = list(free)
        expected = []
        for _ in range(n):
            best = left.index(max(left))
            expected.append(best)
            left[best] -= 1
        hosts = spread_hosts_evenly(free, n)
        assert hosts == expected
        assert all(type(s) is int for s in hosts)

    def test_spread_evenly_balances(self):
        free = np.array([5, 4, 4, 5])  # a 4-switch path at radix 6
        counts = np.bincount(spread_hosts_evenly(free, 10), minlength=4)
        assert counts.tolist() == [3, 2, 2, 3]
        assert (free - counts).max() - (free - counts).min() <= 1

    def test_sequential_fill_packs_first_switches(self):
        # A 3-switch path at radix 4: switch 0 has 3 free ports, switch 1 has 2.
        assert fill_hosts_sequentially([3, 2, 3], 5) == [0, 0, 0, 1, 1]

    def test_round_robin_fill_sweeps(self):
        assert fill_hosts_round_robin([1, 3, 0, 2], 5) == [0, 1, 3, 1, 3]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(0, 80))
    def test_fills_match_loop_references(self, free, n):
        n = min(n, sum(free))
        sequential, left = [], list(free)
        for s in range(len(free)):
            while len(sequential) < n and left[s] > 0:
                sequential.append(s)
                left[s] -= 1
        round_robin, left = [], list(free)
        while len(round_robin) < n:
            for s in range(len(free)):
                if len(round_robin) < n and left[s] > 0:
                    round_robin.append(s)
                    left[s] -= 1
        assert fill_hosts_sequentially(free, n) == sequential
        assert fill_hosts_round_robin(free, n) == round_robin

    def test_sequential_fill_capacity_error(self):
        with pytest.raises(ValueError, match=r"not enough free ports to attach 5 hosts \(4 free\)"):
            fill_hosts_sequentially([4], 5)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fill_hosts_sequentially([4], -1)
        assert fill_hosts_sequentially([4], 0) == []

    @pytest.mark.parametrize(
        "fill",
        [
            fill_hosts_round_robin, spread_hosts_evenly,
            lambda free, n: fill_hosts_dfs(
                HostSwitchGraph.from_edges(len(free), 4, [], []), n
            ),
        ],
        ids=["round-robin", "spread", "dfs"],
    )
    def test_every_fill_gives_the_same_capacity_error(self, fill):
        with pytest.raises(ValueError, match=r"not enough free ports to attach 5 hosts \(4 free\)"):
            fill([4], 5)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fill([4], -1)
        assert fill([4], 0) == []

    def test_dfs_fill_follows_traversal(self):
        # Path 0-1-2 rooted at 0 fills 0, then 1, then 2.
        g = HostSwitchGraph.from_edges(3, 4, [(0, 1), (1, 2)], [])
        assert fill_hosts_dfs(g, 6, root=0) == [0, 0, 0, 1, 1, 2]
        assert g.num_hosts == 0  # the graph is not changed

    def test_dfs_fill_groups_neighbours(self):
        # Star: root 0 with leaves; DFS visits leaf subtrees consecutively.
        g = HostSwitchGraph.from_edges(3, 6, [(0, 1), (0, 2)], [])
        hosts = fill_hosts_dfs(g, 12, root=0)
        assert hosts == [0] * 4 + [1] * 5 + [2] * 3
        HostSwitchGraph.from_edges(3, 6, [(0, 1), (0, 2)], hosts).validate()
