"""Property-style equivalence suite for the incremental h-ASPL evaluator.

The core guarantee under test: after *every* commit and rollback across
hundreds of random accepted/rejected moves — including disconnecting moves
and graphs with hostless switches — the evaluator's matrix equals the
reference kernel's APSP and its value matches the from-scratch
:func:`repro.core.metrics.h_aspl_and_diameter` to 1e-9 (in fact
bit-for-bit; the tolerance is the acceptance criterion's wording).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.construct import random_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
import repro.core.incremental as incremental
from repro.core.incremental import (
    IncrementalEvaluator,
    IncrementalEvaluatorError,
    _neighbour_table,
    _removal_sides,
)
from repro.core.kernels import CSRAdjacency
from repro.core.metrics import h_aspl_and_diameter, switch_distance_matrix
from repro.core.operations import (
    SwapMove,
    SwingMove,
    propose_swap,
    propose_swing,
)
from tests.conftest import REFERENCE_KERNEL, CheckedEvaluator


def _reference_apsp(graph: HostSwitchGraph) -> np.ndarray:
    csr = CSRAdjacency.from_graph(graph)
    return REFERENCE_KERNEL.bfs_distances(csr, np.arange(graph.num_switches))


def _assert_matches_metrics(evaluator: IncrementalEvaluator, graph) -> None:
    assert np.array_equal(evaluator.dist, _reference_apsp(graph))
    expected = h_aspl_and_diameter(graph)[0]
    if math.isinf(expected):
        assert math.isinf(evaluator.value)
    else:
        assert abs(evaluator.value - expected) <= 1e-9
        # The docstring promises more than the tolerance: bit-equality.
        assert evaluator.value == expected


def _drive_random_moves(
    graph: HostSwitchGraph,
    evaluator: IncrementalEvaluator,
    rng: np.random.Generator,
    moves: int,
) -> dict[str, int]:
    """Random swap/swing churn with random commit/rollback decisions."""
    counters = {"proposed": 0, "committed": 0, "rolled_back": 0, "disconnecting": 0}
    edges = [tuple(sorted(e)) for e in graph.switch_edges()]
    for _ in range(moves):
        if rng.integers(0, 2):
            move = propose_swap(edges, rng, graph)
        else:
            move = propose_swing(edges, rng, graph)
        if move is None:
            continue
        move.apply(graph)
        value = evaluator.propose(move)
        counters["proposed"] += 1
        if math.isinf(value):
            counters["disconnecting"] += 1
        if rng.integers(0, 2):
            evaluator.commit()
            counters["committed"] += 1
            edges = [tuple(sorted(e)) for e in graph.switch_edges()]
        else:
            evaluator.rollback()
            move.undo(graph)
            counters["rolled_back"] += 1
        _assert_matches_metrics(evaluator, graph)
    return counters


class TestEquivalenceProperty:
    @pytest.mark.parametrize(
        "n,m,r,seed",
        [
            (48, 16, 5, 0),  # sparse: disconnecting moves occur
            (64, 16, 7, 1),  # denser
            (20, 24, 5, 2),  # hostless switches (capacity >> hosts)
        ],
    )
    def test_500_random_moves_match_metrics(self, n, m, r, seed):
        graph = random_host_switch_graph(n, m, r, seed=seed).copy()
        evaluator = IncrementalEvaluator(graph)
        rng = np.random.default_rng(seed + 100)
        counters = _drive_random_moves(graph, evaluator, rng, moves=1000)
        # The suite is only meaningful if it exercised real churn.
        assert counters["proposed"] >= 500
        assert counters["committed"] > 50
        assert counters["rolled_back"] > 50

    def test_disconnecting_moves_are_exercised(self):
        graph = random_host_switch_graph(48, 16, 5, seed=0).copy()
        evaluator = IncrementalEvaluator(graph)
        rng = np.random.default_rng(100)
        counters = _drive_random_moves(graph, evaluator, rng, moves=700)
        assert counters["disconnecting"] > 0

    def test_forced_fallback_path_matches(self, monkeypatch):
        # A zero fallback fraction rebuilds every proposal through the same
        # batched-BFS code the repair path uses: exercises the fallback.
        monkeypatch.setattr(incremental, "_FALLBACK_FRACTION", 0.0)
        graph = random_host_switch_graph(48, 16, 5, seed=3).copy()
        evaluator = IncrementalEvaluator(graph)
        rng = np.random.default_rng(103)
        counters = _drive_random_moves(graph, evaluator, rng, moves=200)
        assert counters["proposed"] > 0
        assert evaluator.stats["fallbacks"] == counters["proposed"]

    def test_oracle_mode_accepts_correct_runs(self):
        graph = random_host_switch_graph(32, 12, 6, seed=4).copy()
        evaluator = CheckedEvaluator(graph, connected_commits=False)
        rng = np.random.default_rng(104)
        counters = _drive_random_moves(graph, evaluator, rng, moves=150)
        assert evaluator.checks == counters["proposed"] > 0

    def test_oracle_mode_detects_desync(self):
        class Unstored(CheckedEvaluator):
            # Journals every repaired block but never stores it, so the
            # matrix falls behind the moves the evaluator is given.
            def _write(self, rows, cols, old, new):
                self._pending[1].append((rows, cols, old, new))

        graph = random_host_switch_graph(32, 12, 6, seed=5).copy()
        evaluator = Unstored(graph)
        rng = np.random.default_rng(105)
        edges = [tuple(sorted(e)) for e in graph.switch_edges()]
        move = None
        while move is None:
            move = propose_swap(edges, rng, graph)
        # The oracle holds the matrix to its own copy of the graph, not to
        # the caller's, so the first swap already tells.
        with pytest.raises(AssertionError, match="reference APSP"):
            evaluator.propose(move)

    def test_two_neighbor_extension(self):
        # The annealer's step-3 retry: step 1's swing stays pending and the
        # second swing extends it; rollback undoes both, commit keeps both.
        graph = random_host_switch_graph(40, 12, 7, seed=6).copy()
        evaluator = CheckedEvaluator(graph, connected_commits=False)
        rng = np.random.default_rng(106)
        done = 0
        attempts = 0
        while done < 20 and attempts < 4000:
            attempts += 1
            edges = [tuple(sorted(e)) for e in graph.switch_edges()]
            i, j = rng.integers(0, len(edges), size=2)
            sa, sb = edges[int(i)]
            sc, sd = edges[int(j)]
            if len({sa, sb, sc, sd}) != 4:
                continue
            first = SwingMove(sa, sb, sc)
            if not first.is_legal(graph):
                continue
            first.apply(graph)
            evaluator.propose(first)
            second = SwingMove(sd, sc, sb)
            if not second.is_legal(graph):
                evaluator.rollback()
                first.undo(graph)
                continue
            second.apply(graph)
            value = evaluator.extend(second)
            if rng.integers(0, 2):
                evaluator.commit()
            else:
                evaluator.rollback()
                second.undo(graph)
                first.undo(graph)
            _assert_matches_metrics(evaluator, graph)
            if not math.isinf(value):
                done += 1
        assert done == 20
        assert evaluator.extension_checks >= 20
        assert evaluator.stats["extensions"] == evaluator.extension_checks


class TestProtocol:
    def _graph(self):
        return random_host_switch_graph(24, 8, 6, seed=7).copy()

    def _legal_swap(self, graph, rng):
        edges = [tuple(sorted(e)) for e in graph.switch_edges()]
        move = None
        while move is None:
            move = propose_swap(edges, rng, graph)
        return move

    def test_double_propose_rejected(self):
        graph = self._graph()
        evaluator = IncrementalEvaluator(graph)
        rng = np.random.default_rng(0)
        move = self._legal_swap(graph, rng)
        move.apply(graph)
        evaluator.propose(move)
        with pytest.raises(IncrementalEvaluatorError, match="pending"):
            evaluator.propose(move)

    def test_extend_without_pending_rejected(self):
        graph = self._graph()
        evaluator = IncrementalEvaluator(graph)
        move = self._legal_swap(graph, np.random.default_rng(0))
        move.apply(graph)
        with pytest.raises(IncrementalEvaluatorError, match="extend"):
            evaluator.extend(move)

    def test_commit_without_pending_rejected(self):
        evaluator = IncrementalEvaluator(self._graph())
        with pytest.raises(IncrementalEvaluatorError, match="commit"):
            evaluator.commit()

    def test_rollback_without_pending_rejected(self):
        evaluator = IncrementalEvaluator(self._graph())
        with pytest.raises(IncrementalEvaluatorError, match="rollback"):
            evaluator.rollback()

    def test_too_few_hosts_rejected(self):
        graph = HostSwitchGraph.from_edges(2, 4, [(0, 1)], [0])
        with pytest.raises(ValueError, match="hosts"):
            IncrementalEvaluator(graph)

    def test_failed_proposal_restores_committed_state(self, monkeypatch):
        # A 6-ring: removing {0, 1} repairs rows in place (no fallback)
        # before the second removed edge {2, 4}, which does not exist,
        # raises mid-proposal.
        monkeypatch.setattr(incremental, "_FALLBACK_FRACTION", 1.0)
        ring = [(s, (s + 1) % 6) for s in range(6)]
        graph = HostSwitchGraph.from_edges(6, 3, ring, list(range(6)))
        evaluator = IncrementalEvaluator(graph)
        before, value = evaluator.dist.copy(), evaluator.value
        with pytest.raises(ValueError, match="no switch edge"):
            evaluator.propose(SwapMove(0, 1, 2, 4))
        assert np.array_equal(evaluator.dist, before)
        assert evaluator.value == value
        evaluator.propose(SwapMove(0, 1, 3, 4))  # no proposal left pending
        evaluator.rollback()

    def test_edits_outside_propose_rejected(self):
        graph = self._graph()
        evaluator = IncrementalEvaluator(graph)
        a, b = next(iter(graph.switch_edges()))
        with pytest.raises(IncrementalEvaluatorError, match="propose"):
            evaluator.remove_edge(a, b)

    def test_stats_accumulate(self):
        graph = self._graph()
        evaluator = IncrementalEvaluator(graph)
        rng = np.random.default_rng(2)
        for _ in range(5):
            move = self._legal_swap(graph, rng)
            move.apply(graph)
            evaluator.propose(move)
            evaluator.commit()
        assert evaluator.stats["proposals"] == 5
        assert (
            evaluator.stats["repaired_rows"] > 0 or evaluator.stats["fallbacks"] > 0
        )


class TestRepairPrimitives:
    def test_kernel_bfs_matches_metrics(self):
        graph = random_host_switch_graph(40, 14, 6, seed=8)
        m = graph.num_switches
        csr = CSRAdjacency.from_graph(graph)
        dist = REFERENCE_KERNEL.bfs_distances(csr, np.arange(m))
        assert np.array_equal(dist, switch_distance_matrix(graph))

    def test_kernel_bfs_reports_unreachable_as_inf(self):
        csr = CSRAdjacency.from_edges(4, [(0, 1)])
        dist = REFERENCE_KERNEL.bfs_distances(csr, np.arange(4))
        assert dist[0, 1] == 1.0
        assert math.isinf(dist[0, 2])
        assert dist[2, 2] == 0.0

    def test_affected_sources_exact_on_path_graph(self):
        # Path 0-1-2-3 with a chord 0-2: removing {1, 2} strands nobody
        # with the chord as alternative except sources whose only route to
        # 2 ran through 1.
        m = 4
        csr = CSRAdjacency.from_edges(m, [(0, 1), (1, 2), (2, 3), (0, 2)])
        dist = REFERENCE_KERNEL.bfs_distances(csr, np.arange(m))
        stripped = CSRAdjacency.from_edges(m, [(0, 1), (2, 3), (0, 2)])
        near, far = _removal_sides(dist, _neighbour_table(stripped, 3), 1, 2)
        affected = set(near.tolist()) | set(far.tolist())
        assert not set(near.tolist()) & set(far.tolist())
        after = REFERENCE_KERNEL.bfs_distances(stripped, np.arange(m))
        truly_changed = {
            int(x) for x in range(m) if not np.array_equal(dist[x], after[x])
        }
        assert truly_changed <= affected
        # Exactness on this fixture: the test is not just a superset.
        assert affected == truly_changed
        # Only the cross block between the two sides changes.
        changed = np.argwhere(dist != after)
        assert all((x in near) != (y in near) for x, y in changed)
