"""Direct tests for helpers otherwise only exercised indirectly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.bisect import greedy_bisection, initial_bisection
from repro.partition.graph import WeightedGraph
from repro.partition.metrics import cut_size
from repro.topologies.base import TopologySpec, attach_hosts
from repro.topologies.dragonfly import dragonfly_switch_edges
from repro.topologies.fattree import fat_tree_switch_edges
from repro.topologies.hypercube import hypercube_switch_edges
from repro.topologies.mesh import mesh_switch_edges
from repro.topologies.slimfly import slim_fly_switch_edges
from repro.topologies.torus import torus_switch_edges


class TestAttachHosts:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown host fill"):
            attach_hosts([2, 2], 2, "diagonal")

    def test_sequential_out_of_ports(self):
        with pytest.raises(ValueError, match="not enough free ports"):
            attach_hosts([3], 4, "sequential")

    def test_round_robin_out_of_ports(self):
        with pytest.raises(ValueError, match="not enough free ports"):
            attach_hosts([2, 2], 5, "round-robin")


class TestSpecStr:
    def test_human_readable(self):
        spec = TopologySpec("torus", 27, 12, 108, {"K": 3, "N": 3})
        text = str(spec)
        assert "torus(K=3, N=3)" in text
        assert "m=27" in text and "r=12" in text and "n_max=108" in text


class TestEdgeListHelpers:
    def test_torus_edge_count(self):
        # K-ary N-torus: K * N^K edges for N > 2.
        assert len(torus_switch_edges(2, 4)) == 2 * 16
        assert len(torus_switch_edges(3, 3)) == 3 * 27
        # base 2: wrap edges coincide -> K * 2^K / 2... each dim gives
        # 2^(K-1) distinct edges.
        assert len(torus_switch_edges(3, 2)) == 3 * 4
        assert torus_switch_edges(1, 1) == []

    def test_mesh_edge_count(self):
        # K-dim mesh: K * (N-1) * N^(K-1).
        assert len(mesh_switch_edges(2, 4)) == 2 * 3 * 4
        assert len(mesh_switch_edges(3, 2)) == 3 * 1 * 4

    def test_hypercube_edge_count(self):
        assert len(hypercube_switch_edges(4)) == 4 * 16 // 2

    def test_fat_tree_edge_count(self):
        # K^2/2 pod edges per pod * K pods / ... total: K * (K/2)^2 + core.
        k = 4
        edges = fat_tree_switch_edges(k)
        # pod internal: K pods * (K/2)^2 ; core uplinks: (K/2)^2 * K.
        assert len(edges) == k * (k // 2) ** 2 + (k // 2) ** 2 * k

    def test_dragonfly_edge_count(self):
        a = 4
        g_count = a * (a // 2) + 1  # 9 groups
        intra = g_count * a * (a - 1) // 2
        inter = g_count * (g_count - 1) // 2
        assert len(dragonfly_switch_edges(a)) == intra + inter

    def test_slim_fly_edge_count(self):
        q = 5
        edges = slim_fly_switch_edges(q)
        degree = (3 * q - 1) // 2
        assert len(edges) == 2 * q * q * degree // 2


class TestBisectionHelpers:
    def ring(self, n):
        return WeightedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def test_greedy_bisection_hits_target_weight(self):
        g = self.ring(20)
        rng = np.random.default_rng(0)
        parts = greedy_bisection(g, target0=10.0, rng=rng)
        assert sum(1 for p in parts if p == 0) == 10

    def test_greedy_bisection_grows_contiguously_on_ring(self):
        g = self.ring(24)
        rng = np.random.default_rng(1)
        parts = greedy_bisection(g, target0=12.0, rng=rng)
        # A contiguous arc cuts exactly 2 edges.
        assert cut_size(g, parts) == 2

    def test_initial_bisection_beats_single_trial_or_ties(self):
        g = self.ring(32)
        one = initial_bisection(g, 16.0, seed=3, trials=1)
        many = initial_bisection(g, 16.0, seed=3, trials=5)
        assert cut_size(g, many) <= cut_size(g, one)


class TestCLIBuildParser:
    def test_parser_metadata(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"
        # Every documented command parses.
        for argv in (["bounds", "8", "4"], ["solve", "8", "4"],
                     ["odp", "8", "3"], ["topology", "mesh"],
                     ["simulate", "ep"], ["traffic", "uniform"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]
