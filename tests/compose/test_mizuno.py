"""Tests for the composition plan arithmetic and the glue step."""

from __future__ import annotations

import pytest

from repro.compose.mizuno import (
    DEFAULT_BLOCK_HOSTS,
    compose_blocks,
    plan_composition,
)
from repro.core.annealing import AnnealingSchedule, anneal
from repro.core.construct import clique_host_switch_graph, random_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import switch_distance_matrix
from repro.core.serialization import graph_to_text


class TestPlanComposition:
    def test_explicit_copies(self):
        plan = plan_composition(1000, 20, copies=4)
        assert plan.copies == 4
        assert plan.block_hosts == 250
        assert plan.block_radix == 20 - 3
        assert plan.n == 1000
        assert plan.requested_n == 1000

    def test_rounds_up_to_copy_multiple(self):
        plan = plan_composition(1001, 20, copies=4)
        assert plan.block_hosts == 251
        assert plan.n == 1004  # never fewer hosts than requested
        assert plan.requested_n == 1001

    def test_block_hosts_drives_copy_count(self):
        plan = plan_composition(10_000, 32, block_hosts=512)
        assert plan.copies == 20  # ceil(10000 / 512)
        assert plan.copies * plan.block_hosts >= 10_000
        assert plan.block_radix == 32 - 19

    def test_default_block_hosts(self):
        plan = plan_composition(3000, 16)
        assert plan.copies == 3  # ceil(3000 / 1024)
        assert plan.block_hosts == 1000
        assert DEFAULT_BLOCK_HOSTS == 1024

    def test_single_copy_degenerates_to_direct(self):
        plan = plan_composition(100, 8, copies=1)
        assert plan.block_radix == 8
        assert plan.block_hosts == 100

    def test_radix_budget_exhaustion(self):
        # 20 copies spend 19 ports; radix 21 leaves only 2 for the block.
        with pytest.raises(ValueError, match="radix budget"):
            plan_composition(10_000, 21, copies=20)

    def test_too_many_copies(self):
        with pytest.raises(ValueError, match="< 2 hosts per block"):
            plan_composition(4, 32, copies=4)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            plan_composition(1, 8)


class TestComposeBlocks:
    def test_shape_and_validity(self):
        block = clique_host_switch_graph(12, 7)  # m=3, 4 hosts/switch
        fabric = compose_blocks(block, 4)
        assert fabric.num_hosts == 48
        assert fabric.num_switches == block.num_switches * 4
        assert fabric.radix == block.radix + 3
        fabric.validate()  # no-op if compose_blocks validated correctly

    def test_placement_preserved_per_copy(self):
        block = clique_host_switch_graph(10, 6)
        fabric = compose_blocks(block, 3)
        n_b, m_b = block.num_hosts, block.num_switches
        for c in range(3):
            for h in range(n_b):
                assert (
                    fabric.host_attachment(c * n_b + h)
                    == c * m_b + block.host_attachment(h)
                )

    def test_distance_law(self):
        # d((i, a), (j, b)) = d_B(a, b) + [i != j], for every switch pair.
        block = clique_host_switch_graph(12, 7)
        copies = 3
        fabric = compose_blocks(block, copies)
        m_b = block.num_switches
        d_block = switch_distance_matrix(block)
        d_fabric = switch_distance_matrix(fabric)
        for i in range(copies):
            for j in range(copies):
                for a in range(m_b):
                    for b in range(m_b):
                        expected = d_block[a, b] + (1 if i != j else 0)
                        assert d_fabric[i * m_b + a, j * m_b + b] == expected

    def test_explicit_radix_spare_ports(self):
        block = clique_host_switch_graph(12, 7)
        fabric = compose_blocks(block, 2, radix=12)
        assert fabric.radix == 12
        assert all(fabric.free_ports(s) >= 4 for s in range(fabric.num_switches))

    def test_insufficient_radix_rejected(self):
        block = clique_host_switch_graph(12, 7)
        with pytest.raises(ValueError, match="cannot carry"):
            compose_blocks(block, 4, radix=9)

    def test_single_copy_is_isomorphic_to_block(self):
        block = clique_host_switch_graph(12, 7)
        fabric = compose_blocks(block, 1)
        assert fabric.num_hosts == block.num_hosts
        assert fabric.num_switches == block.num_switches
        assert sorted(fabric.switch_edges()) == sorted(block.switch_edges())


def _per_edge_glue(block: HostSwitchGraph, copies: int) -> HostSwitchGraph:
    """Reference glue: one mutator call per fabric edge and per host."""
    m_b = block.num_switches
    fabric = HostSwitchGraph(m_b * copies, block.radix + copies - 1)
    block_edges = list(block.switch_edges())
    for c in range(copies):
        for a, b in block_edges:
            fabric.add_switch_edge(c * m_b + a, c * m_b + b)
    for s in range(m_b):
        for i in range(copies):
            for j in range(i + 1, copies):
                fabric.add_switch_edge(i * m_b + s, j * m_b + s)
    for c in range(copies):
        for s in block.host_attachments().tolist():
            fabric.attach_host(c * m_b + s)
    fabric.validate()
    return fabric


@pytest.fixture(scope="module", params=["clique", "annealed"])
def glue_block(request):
    if request.param == "clique":
        return clique_host_switch_graph(40, 12)
    # Annealing removes and re-adds edges, so the block's neighbour sets
    # carry a removal history into switch_edges() order.
    start = random_host_switch_graph(64, 12, 8, seed=1)
    return anneal(start, schedule=AnnealingSchedule(num_steps=300), seed=1).graph


@pytest.mark.parametrize("copies", [1, 2, 5])
def test_bulk_glue_equals_per_edge_glue(glue_block, copies):
    fabric = compose_blocks(glue_block, copies)
    ref = _per_edge_glue(glue_block, copies)
    assert fabric == ref
    assert graph_to_text(fabric) == graph_to_text(ref)
    assert list(fabric.switch_edges()) == list(ref.switch_edges())
    assert [list(nbrs) for nbrs in fabric._adj] == [list(nbrs) for nbrs in ref._adj]
    assert fabric.host_attachments().tolist() == ref.host_attachments().tolist()
