"""Property suite: the BFS kernel is bit-identical to the reference.

The pure-Python dense-matmul :class:`PythonBackend` is the reference; the
bit-packed production kernel must reproduce its distances **bit for
bit** on hundreds of adversarial random graphs — hostless switches,
disconnected components, post-fault partitioned fabrics — for full
APSP, single-row repair, and the
:class:`repro.core.incremental.DynamicDistanceMatrix` mutation paths.
Distances are small integers (exact in float64), so bit-identity is a
meaningful and achievable bar.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.construct import random_host_switch_graph
from repro.core.incremental import DynamicDistanceMatrix
from repro.core.kernels import KERNEL, CSRAdjacency
from repro.core.metrics import h_aspl, switch_distance_matrix
from repro.core.operations import propose_swap, propose_swing
from tests.conftest import REFERENCE_KERNEL, CheckedEvaluator


@pytest.fixture(params=[KERNEL], ids=lambda kernel: kernel.name)
def kernel(request):
    """The production kernel, held to :data:`REFERENCE_KERNEL`.

    A fixture rather than the module constant so the tests keep the
    ``[bitset]`` ids they had when several kernels were selectable.
    """
    return request.param


def _random_csr(rng: np.random.Generator) -> tuple[int, CSRAdjacency]:
    """A random switch graph as CSR: ragged degrees, often disconnected."""
    m = int(rng.integers(1, 90))
    style = rng.random()
    if style < 0.15:
        edges: set[tuple[int, int]] = set()  # edgeless: everything isolated
    elif style < 0.4 and m >= 4:
        # Two (or more) islands: guaranteed disconnected components.
        cut = int(rng.integers(1, m))
        edges = set()
        for lo, hi in ((0, cut), (cut, m)):
            size = hi - lo
            for _ in range(int(rng.integers(0, 2 * size + 1))):
                a, b = rng.integers(lo, hi, size=2)
                if a != b:
                    edges.add((min(int(a), int(b)), max(int(a), int(b))))
    else:
        edges = set()
        for _ in range(int(rng.integers(0, 3 * m + 1))):
            a, b = rng.integers(0, m, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return m, CSRAdjacency.from_edges(m, sorted(edges))


def _random_sources(rng: np.random.Generator, m: int) -> np.ndarray:
    ns = int(rng.integers(0, min(m, 70) + 1))
    if ns == 0:
        return np.array([], dtype=np.int64)
    if rng.random() < 0.5:
        return np.sort(rng.choice(m, size=ns, replace=False))
    return rng.integers(0, m, size=ns)  # duplicates + arbitrary order


class TestBitIdentityAgainstOracle:
    """~180 random graphs across the two call shapes."""

    def test_full_apsp(self, kernel):
        rng = np.random.default_rng(101)
        for _ in range(120):
            m, csr = _random_csr(rng)
            sources = _random_sources(rng, m)
            expected = REFERENCE_KERNEL.bfs_distances(csr, sources)
            got = kernel.bfs_distances(csr, sources)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    def test_single_row_repair(self, kernel):
        """One source, all targets — the minimal repair-path call shape."""
        rng = np.random.default_rng(303)
        for _ in range(60):
            m, csr = _random_csr(rng)
            row = np.array([int(rng.integers(0, m))])
            expected = REFERENCE_KERNEL.bfs_distances(csr, row)
            got = kernel.bfs_distances(csr, row)
            assert np.array_equal(got, expected)


class TestDynamicDistanceMatrixBitIdentity:
    """remove/add/remove_switch keep the matrix equal to the reference."""

    def test_fault_and_repair_trajectory(self):
        rng = np.random.default_rng(404)
        for trial in range(6):
            graph = random_host_switch_graph(
                96, int(rng.integers(14, 28)), 9, seed=int(rng.integers(1 << 30))
            )
            ddm = DynamicDistanceMatrix(graph)
            m = ddm.num_switches
            live = {tuple(sorted(map(int, e))) for e in graph.switch_edges()}
            for step in range(50):
                roll = rng.random()
                if roll < 0.25 and live:
                    # Switch takedown: cascades into per-edge removals and
                    # routinely partitions the fabric (inf entries).
                    victim = int(rng.integers(0, m))
                    for edge in ddm.remove_switch(victim):
                        live.discard(edge)
                elif roll < 0.6 and live:
                    edge = sorted(live)[int(rng.integers(len(live)))]
                    ddm.remove_edge(*edge)
                    live.discard(edge)
                else:
                    a, b = int(rng.integers(m)), int(rng.integers(m))
                    edge = (min(a, b), max(a, b))
                    if a == b or edge in live:
                        continue
                    ddm.add_edge(*edge)
                    live.add(edge)
                if step % 10 == 9:
                    csr = CSRAdjacency.from_edges(m, sorted(live))
                    expected = REFERENCE_KERNEL.bfs_distances(csr, np.arange(m))
                    assert np.array_equal(ddm.dist, expected)


def test_incremental_evaluator_trajectory_matches_reference():
    """A full propose/commit/rollback walk stays exact at every step."""
    rng = np.random.default_rng(505)
    graph = random_host_switch_graph(128, 24, 9, seed=7)
    evaluator = CheckedEvaluator(graph, connected_commits=False)
    for _ in range(80):
        edges = sorted(graph.switch_edges())
        move = (
            propose_swap(edges, rng, graph)
            if rng.random() < 0.6
            else propose_swing(edges, rng, graph)
        )
        if move is None or not move.is_legal(graph):
            continue
        move.apply(graph)
        evaluator.propose(move)
        if rng.random() < 0.5:
            evaluator.commit()
        else:
            evaluator.rollback()
            move.undo(graph)
    assert evaluator.checks > 0
    assert evaluator.value == h_aspl(graph)  # repro-lint: disable=REP004 -- bit-identity contract


def test_hostless_switches_participate_in_distances():
    """Switches with zero hosts are still BFS vertices (swing support)."""
    graph = random_host_switch_graph(40, 10, 8, seed=3)
    counts = graph.host_counts()
    dist = switch_distance_matrix(graph)
    # Every switch has a row/column whether or not it bears hosts.
    assert dist.shape == (10, 10)
    assert np.array_equal(np.diag(dist), np.zeros(10))
    assert (counts >= 0).all()


def test_empty_and_degenerate_shapes(kernel):
    fast = kernel
    csr = CSRAdjacency.from_edges(3, [(0, 1)])
    empty = fast.bfs_distances(csr, np.array([], dtype=np.int64))
    assert empty.shape == (0, 3)
    lone = CSRAdjacency.from_edges(1, [])
    assert np.array_equal(
        fast.bfs_distances(lone, np.array([0])), np.array([[0.0]])
    )


def test_concurrent_calls_match_serial_results():
    """Threads sharing :data:`KERNEL` get their serial answers.

    ``repro serve`` runs solves in worker threads.  The graphs share one
    shape, so a scratch cache shared across threads would hand every call
    the same bitmaps; a tiny switch interval makes thread switches
    mid-call frequent enough to expose that on every run.
    """
    threads = 3
    csrs = [
        CSRAdjacency.from_graph(random_host_switch_graph(300, 96, 9, seed=seed))
        for seed in range(threads)
    ]
    rng = np.random.default_rng(0)
    sources = [np.sort(rng.choice(96, size=90, replace=False)) for _ in range(threads)]
    serial = [KERNEL.bfs_distances(c, s) for c, s in zip(csrs, sources)]
    mismatches = [0] * threads
    errors: list[Exception] = []
    barrier = threading.Barrier(threads)

    def work(i: int) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(40):
                if not np.array_equal(KERNEL.bfs_distances(csrs[i], sources[i]), serial[i]):
                    mismatches[i] += 1
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == [] and mismatches == [0] * threads
