"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import IncrementalEvaluator
from repro.core.kernels import CSRAdjacency
from repro.core.kernels.python_backend import PythonBackend

#: The reference BFS kernel (dense matmul) every fast path is checked against.
REFERENCE_KERNEL = PythonBackend()


@pytest.fixture
def fig1_graph() -> HostSwitchGraph:
    """A host-switch graph shaped like the paper's Fig. 1 regime.

    n = 16 hosts, m = 4 switches, r = 6: switches 0-3 in a 4-cycle with one
    diagonal pair each carrying hosts, chosen so distances are non-trivial
    (some host pairs at distance 2, some at 3, some at 4).
    """
    g = HostSwitchGraph(num_switches=4, radix=6)
    g.add_switch_edge(0, 1)
    g.add_switch_edge(1, 2)
    g.add_switch_edge(2, 3)
    g.add_switch_edge(3, 0)
    for s in range(4):
        for _ in range(4):
            g.attach_host(s)
    g.validate()
    return g


@pytest.fixture
def clique4_graph() -> HostSwitchGraph:
    """4 fully-connected switches, 3 hosts each (n=12, m=4, r=6)."""
    g = HostSwitchGraph(num_switches=4, radix=6)
    for a in range(4):
        for b in range(a + 1, 4):
            g.add_switch_edge(a, b)
    for s in range(4):
        for _ in range(3):
            g.attach_host(s)
    g.validate()
    return g


def brute_force_h_aspl(graph: HostSwitchGraph) -> float:
    """Oracle h-ASPL: BFS over the full bipartite-ish vertex graph.

    Deliberately naive (adjacency dict over ("h", i) / ("s", j) vertices,
    plain BFS per host) so it shares no code with the production metric.
    ``inf`` when some pair of hosts is disconnected.
    """
    from collections import deque

    adj: dict[tuple, list[tuple]] = {}
    for s in range(graph.num_switches):
        adj[("s", s)] = [("s", b) for b in graph.neighbors(s)]
    for h in range(graph.num_hosts):
        s = graph.host_attachment(h)
        adj[("h", h)] = [("s", s)]
        adj[("s", s)].append(("h", h))

    n = graph.num_hosts
    total = 0
    for h in range(n):
        dist = {("h", h): 0}
        queue = deque([("h", h)])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for h2 in range(h + 1, n):
            if ("h", h2) not in dist:
                return float("inf")
            total += dist[("h", h2)]
    return total / (n * (n - 1) / 2)


class CheckedEvaluator(IncrementalEvaluator):
    """Oracle mode: an :class:`IncrementalEvaluator` checked at every step.

    The oracle keeps its own copy of the start graph, independent of the
    caller's: it applies a copy of every proposed or extended move to it
    and undoes them on every rollback, including the one ``propose`` or
    ``extend`` runs on an exception.  (A :class:`SwingMove` records the
    host it moved, so the oracle never shares the caller's move object.)
    Every proposal's and every extension's repaired matrix must equal
    :data:`REFERENCE_KERNEL`'s APSP of that copy, its host counts the
    copy's, its value :func:`brute_force_h_aspl` bit for bit, and its
    row-read :meth:`is_connected` the copy's own walk.  Every commit must
    leave a connected switch graph (checked by that walk) — the
    annealer's invariant; tests that commit disconnecting moves on
    purpose pass ``connected_commits=False``.
    Annealing tests monkeypatch it into ``repro.core.annealing``.
    """

    def __init__(self, graph: HostSwitchGraph, *, connected_commits: bool = True,
                 **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.graph = graph.copy()
        self.applied: list = []  # the pending proposal's moves, as applied to self.graph
        self.connected_commits = connected_commits
        self.checks = 0
        self.extension_checks = 0

    def propose(self, move) -> float:
        return self._checked(super().propose(move), move)

    def extend(self, move) -> float:
        self.extension_checks += 1
        return self._checked(super().extend(move), move)

    def _checked(self, value: float, move) -> float:
        own = copy.copy(move)
        own.apply(self.graph)
        self.applied.append(own)
        graph = self.graph
        csr = CSRAdjacency.from_graph(graph)
        expected = REFERENCE_KERNEL.bfs_distances(csr, np.arange(graph.num_switches))
        assert np.array_equal(self.dist, expected), "repaired matrix != reference APSP"
        assert np.array_equal(self._k, graph.host_counts()), "host counts != graph"
        assert self.is_connected() == graph.is_switch_graph_connected(), "row read != walk"
        reference = brute_force_h_aspl(graph)
        assert value == reference or math.isinf(value) and math.isinf(reference), (
            f"incremental h-ASPL {value!r} != brute force {reference!r}"
        )
        self.checks += 1
        return value

    def commit(self) -> None:
        if self.connected_commits:
            assert self.graph.is_switch_graph_connected(), "committed a split switch graph"
        super().commit()
        self.applied.clear()

    def rollback(self) -> None:
        super().rollback()
        for move in reversed(self.applied):
            move.undo(self.graph)
        self.applied.clear()


def checked_anneal(graph: HostSwitchGraph, *, evaluators: list | None = None, **kwargs):
    """:func:`repro.core.annealing.anneal` scored through :class:`CheckedEvaluator`.

    Patches the evaluator into ``repro.core.annealing`` for this one call
    and asserts the checks really ran; ``evaluators``, when given,
    receives the evaluators the run made.
    """
    import repro.core.annealing as annealing

    made: list[CheckedEvaluator] = [] if evaluators is None else evaluators

    def factory(work: HostSwitchGraph, **options) -> CheckedEvaluator:
        made.append(CheckedEvaluator(work, **options))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "IncrementalEvaluator", factory)
        result = annealing.anneal(graph, **kwargs)
    assert sum(evaluator.checks for evaluator in made) > 0
    return result
