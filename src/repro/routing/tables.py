"""Precomputed shortest-path next-hop tables.

For every (current switch, destination switch) pair we store the set of
neighbours that lie on *some* shortest path.  Deterministic routing picks
the lowest-id candidate; ECMP routing picks uniformly at random per flow.
This is the standard topology-agnostic deterministic routing setup the
paper's evaluation implies (its topologies are irregular, so dimension-order
style routing does not exist).

Tables are built from one BFS per switch using the CSR adjacency, O(m * E).

Degraded mode
-------------
``RoutingTables(graph, degraded=True)`` accepts disconnected fabrics and
keeps routing within surviving components.  The distance matrix is held in a
:class:`repro.core.incremental.DynamicDistanceMatrix`, so injecting or
repairing a fault (:meth:`fail_link`, :meth:`fail_switch`, their repairs,
or :meth:`apply_fault`/:meth:`repair` driven by a
:class:`repro.faults.FaultEvent`) costs a dynamic-BFS repair of the affected
rows instead of the full O(m·E) rebuild — and is bit-identical to rebuilding
from scratch.  Unreachable pairs have distance ``inf``, empty ``next_hops``,
and :meth:`switch_route` raises :class:`UnreachableError` for them (callers
should test :meth:`reachable` first).  The default mode is untouched: it
still rejects disconnected graphs and stores compact int32 distances.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import TYPE_CHECKING

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import DynamicDistanceMatrix
from repro.core.metrics import switch_distance_matrix
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.schedule import FaultEvent

__all__ = ["RoutingTables", "UnreachableError"]

_Edge = tuple[int, int]


class UnreachableError(ValueError):
    """Route requested between switches in different surviving components."""


class RoutingTables:
    """Next-hop tables over the switch graph of a host-switch graph.

    Parameters
    ----------
    graph:
        The host-switch graph to route on.  In the default mode the switch
        graph must be connected (raises otherwise — a disconnected fabric
        cannot route everywhere); with ``degraded=True`` any fabric is
        accepted and routes exist within surviving components only.
    degraded:
        Enable the fault-aware mode described in the module docstring.

    Notes
    -----
    ``next_hops(u, v)`` returns every neighbour of ``u`` one step closer to
    ``v``; ``next_hop(u, v)`` the deterministic (lowest-id) choice.
    """

    def __init__(self, graph: HostSwitchGraph, *, degraded: bool = False) -> None:
        self._graph = graph
        self._degraded = degraded
        m = graph.num_switches
        # neighbors sorted ascending so deterministic choice is lowest-id.
        self._nbrs = [sorted(graph.neighbors(s)) for s in range(m)]
        self._ddm: DynamicDistanceMatrix | None = None
        self._failed_links: set[_Edge] = set()
        self._dead_switches: set[int] = set()
        if degraded:
            self._ddm = DynamicDistanceMatrix(graph)
            # Live float32 view; DynamicDistanceMatrix mutates it in place
            # and never rebinds, so this alias stays valid across faults.
            # Entries are small integers or inf, read via int()/isinf.
            self._dist: np.ndarray = self._ddm.dist
        else:
            dist = switch_distance_matrix(graph)
            if np.isinf(dist).any():
                raise ValueError("switch graph is disconnected; cannot build routes")
            self._dist = dist.astype(np.int32)

    @property
    def graph(self) -> HostSwitchGraph:
        """The graph these tables were built for."""
        return self._graph

    @property
    def degraded(self) -> bool:
        """Whether the fault-aware degraded mode is enabled."""
        return self._degraded

    def distance(self, u: int, v: int) -> float:
        """Switch-graph hop distance (``inf`` if unreachable in degraded mode)."""
        d = self._dist[u, v]
        if self._degraded and math.isinf(d):
            return float("inf")
        return int(d)

    def reachable(self, u: int, v: int) -> bool:
        """Whether a route currently exists from switch ``u`` to ``v``."""
        return not math.isinf(self._dist[u, v])

    def switch_alive(self, s: int) -> bool:
        """Whether switch ``s`` has not been failed (always True by default)."""
        return s not in self._dead_switches

    def next_hops(self, u: int, v: int) -> list[int]:
        """All neighbours of ``u`` on a shortest path towards ``v``.

        Empty when ``u == v`` — and, in degraded mode, when ``v`` is
        unreachable from ``u``.
        """
        if u == v:
            return []
        row = self._dist[:, v]
        if self._degraded and math.isinf(row[u]):
            return []
        target = row[u] - 1
        return [w for w in self._nbrs[u] if row[w] == target]

    def next_hop(self, u: int, v: int, rng: np.random.Generator | None = None) -> int:
        """One next hop: deterministic lowest-id, or uniform ECMP when ``rng`` given."""
        hops = self.next_hops(u, v)
        if not hops:
            raise ValueError(f"no next hop from {u} to {v} (same switch?)")
        if rng is None:
            return hops[0]
        return hops[int(rng.integers(0, len(hops)))]

    def switch_route(
        self, u: int, v: int, rng: np.random.Generator | int | None = None
    ) -> list[int]:
        """Full switch sequence ``[u, ..., v]`` along shortest paths.

        With ``rng`` given, each hop choice is ECMP-random (per call);
        otherwise deterministic.  In degraded mode an unreachable
        destination raises :class:`UnreachableError`.
        """
        if self._degraded and not self.reachable(u, v):
            raise UnreachableError(
                f"switch {v} is unreachable from switch {u} in the degraded fabric"
            )
        gen = as_generator(rng) if rng is not None else None
        path = [u]
        cur = u
        while cur != v:
            cur = self.next_hop(cur, v, gen)
            path.append(cur)
        return path

    def path_diversity(self, u: int, v: int) -> int:
        """Number of distinct shortest switch paths from ``u`` to ``v``.

        Iterative dynamic programming over the shortest-path DAG, processing
        vertices in increasing distance-to-``v`` order (so every next hop is
        counted before its predecessors); useful for analysing load
        spreading (ECMP fan-out).  Safe on high-diameter fabrics — no
        recursion — and 0 when ``v`` is unreachable in degraded mode.
        """
        if u == v:
            return 1
        col = self._dist[:, v]
        du = col[u]
        if self._degraded and math.isinf(du):
            return 0
        counts: dict[int, int] = {v: 1}
        between = np.flatnonzero(col < du)
        for x in between[np.argsort(col[between], kind="stable")]:
            xi = int(x)
            if xi == v:
                continue
            counts[xi] = sum(counts.get(w, 0) for w in self.next_hops(xi, v))
        return sum(counts.get(w, 0) for w in self.next_hops(u, v))

    # ------------------------------------------------------------------ #
    # Fault injection / repair (degraded mode only)
    # ------------------------------------------------------------------ #

    @property
    def failed_links(self) -> frozenset[_Edge]:
        """Explicitly failed links (sorted pairs), excluding dead-switch links."""
        return frozenset(self._failed_links)

    @property
    def dead_switches(self) -> frozenset[int]:
        return frozenset(self._dead_switches)

    def fail_link(self, a: int, b: int) -> list[_Edge]:
        """Take switch link ``{a, b}`` down; returns the links that went down.

        The returned list is empty when the link was already physically down
        because one of its endpoints is a dead switch (the explicit failure
        is still recorded, so repairing the switch will not resurrect it).
        """
        edge = self._check_fault_edge(a, b)
        if edge in self._failed_links:
            raise ValueError(f"link {edge} is already failed")
        return self._transition(lambda: self._failed_links.add(edge))[0]

    def repair_link(self, a: int, b: int) -> list[_Edge]:
        """Bring an explicitly failed link back up; returns restored links."""
        edge = self._check_fault_edge(a, b)
        if edge not in self._failed_links:
            raise ValueError(f"link {edge} is not failed")
        return self._transition(lambda: self._failed_links.remove(edge))[1]

    def fail_switch(self, s: int) -> list[_Edge]:
        """Fail switch ``s`` (all incident links go down); returns them."""
        self._check_fault_switch(s)
        if s in self._dead_switches:
            raise ValueError(f"switch {s} is already dead")
        return self._transition(lambda: self._dead_switches.add(s))[0]

    def repair_switch(self, s: int) -> list[_Edge]:
        """Revive switch ``s``; returns the links that came back up.

        Links that were also failed individually, or whose far endpoint is
        still dead, stay down.
        """
        self._check_fault_switch(s)
        if s not in self._dead_switches:
            raise ValueError(f"switch {s} is not dead")
        return self._transition(lambda: self._dead_switches.remove(s))[1]

    def apply_fault(self, event: FaultEvent) -> tuple[list[_Edge], list[_Edge]]:
        """Apply one :class:`repro.faults.FaultEvent` (down *or* up).

        Returns ``(links_downed, links_restored)`` — exactly one of the two
        is non-empty (both may be empty when the physical state did not
        change, e.g. failing a link of an already-dead switch).
        """
        if event.kind == "link":
            a, b = event.link  # type: ignore[misc]
            if event.action == "down":
                return self.fail_link(a, b), []
            return [], self.repair_link(a, b)
        if event.action == "down":
            return self.fail_switch(event.switch), []  # type: ignore[arg-type]
        return [], self.repair_switch(event.switch)  # type: ignore[arg-type]

    def repair(self, event: FaultEvent) -> tuple[list[_Edge], list[_Edge]]:
        """Undo ``event``: apply the opposite action to the same target."""
        inverse = "up" if event.action == "down" else "down"
        return self.apply_fault(event.replace(action=inverse))

    # -- internals ------------------------------------------------------ #

    def _require_degraded(self) -> None:
        if not self._degraded:
            raise RuntimeError(
                "fault injection requires RoutingTables(graph, degraded=True)"
            )

    def _check_fault_edge(self, a: int, b: int) -> _Edge:
        self._require_degraded()
        edge = (a, b) if a < b else (b, a)
        if b not in self._graph.neighbors(a):
            raise ValueError(f"{edge} is not a switch edge of the underlying graph")
        return edge

    def _check_fault_switch(self, s: int) -> None:
        self._require_degraded()
        if not 0 <= s < self._graph.num_switches:
            raise ValueError(
                f"switch id {s} out of range [0, {self._graph.num_switches})"
            )

    def _down_links(self) -> set[_Edge]:
        """All physically down links implied by the current fault state."""
        down = set(self._failed_links)
        for s in self._dead_switches:
            for t in self._graph.neighbors(s):
                down.add((s, t) if s < t else (t, s))
        return down

    def _transition(self, mutate) -> tuple[list[_Edge], list[_Edge]]:
        """Run ``mutate`` on the fault state, repair the distance matrix.

        Returns the sorted ``(downed, restored)`` physical link changes.
        Each changed link costs one dynamic-BFS repair / min-rule insertion
        on the shared :class:`DynamicDistanceMatrix`.
        """
        assert self._ddm is not None
        before = self._down_links()
        mutate()
        after = self._down_links()
        downed = sorted(after - before)
        restored = sorted(before - after)
        for a, b in downed:
            self._ddm.remove_edge(a, b)
            self._nbrs[a].remove(b)
            self._nbrs[b].remove(a)
        for a, b in restored:
            self._ddm.add_edge(a, b)
            insort(self._nbrs[a], b)
            insort(self._nbrs[b], a)
        return downed, restored
