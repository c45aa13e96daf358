"""Local-search operations on host-switch graphs (paper Sections 5.1-5.2).

Two primitive neighbourhood moves:

- **Swap** (Fig. 2): replace switch-switch edges ``{a,b}, {c,d}`` with
  ``{a,d}, {b,c}``.  Degree-preserving; never touches host edges, so it
  keeps a regular host-switch graph regular.
- **Swing** (Fig. 3): given edge ``{s_a, s_b}`` and a host on ``s_c``,
  replace them with edge ``{s_a, s_c}`` and the host re-attached to ``s_b``.
  Moves a host between switches while preserving every port count, so it
  explores *non-regular* host-switch graphs.

The **2-neighbor swing** (Fig. 4) is a composite accept/try-again protocol
implemented by the annealer (:mod:`repro.core.annealing`); its second step
(`swing(s_d, s_c, s_b)` applied after `swing(s_a, s_b, s_c)`) makes the pair
equivalent to a swap, so the composite subsumes both primitives.

Every move object supports ``is_legal`` / ``apply`` / ``undo``; ``apply``
followed by ``undo`` restores the graph exactly.  The annealer applies a
move only once it is committed, so it never undoes one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hostswitch import HostSwitchGraph

__all__ = ["SwapMove", "SwingMove", "propose_swap", "propose_swing"]


@dataclass(frozen=True)
class SwapMove:
    """2-opt rewiring ``{a,b}, {c,d} -> {a,d}, {b,c}``."""

    a: int
    b: int
    c: int
    d: int

    def is_legal(self, graph: HostSwitchGraph) -> bool:
        """Check endpoints distinct, source edges present, targets absent."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if len({a, b, c, d}) != 4:
            return False
        if not (graph.has_switch_edge(a, b) and graph.has_switch_edge(c, d)):
            return False
        if graph.has_switch_edge(a, d) or graph.has_switch_edge(b, c):
            return False
        return True

    def apply(self, graph: HostSwitchGraph) -> None:
        """Rewire; caller must have checked :meth:`is_legal`."""
        graph.remove_switch_edge(self.a, self.b)
        graph.remove_switch_edge(self.c, self.d)
        graph.add_switch_edge(self.a, self.d)
        graph.add_switch_edge(self.b, self.c)

    def undo(self, graph: HostSwitchGraph) -> None:
        """Exact inverse of :meth:`apply`."""
        graph.remove_switch_edge(self.a, self.d)
        graph.remove_switch_edge(self.b, self.c)
        graph.add_switch_edge(self.a, self.b)
        graph.add_switch_edge(self.c, self.d)

    def edge_changes(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """``(removed, added)`` switch-edge lists (the incremental-evaluator
        delta protocol; see :mod:`repro.core.incremental`)."""
        return [(self.a, self.b), (self.c, self.d)], [(self.a, self.d), (self.b, self.c)]

    def host_count_changes(self) -> list[tuple[int, int]]:
        """``(switch, delta)`` host-count changes — a swap moves no hosts."""
        return []


@dataclass
class SwingMove:
    """``swing(s_a, s_b, s_c)``: edge {a,b} + host on c -> edge {a,c} + host on b.

    Increments ``k_b`` and decrements ``k_c`` (paper notation) while leaving
    every switch's port usage unchanged.  :meth:`apply` records which host
    moved so :meth:`undo` restores host identities exactly (not just
    counts).
    """

    sa: int
    sb: int
    sc: int
    moved_host: int | None = None

    def is_legal(self, graph: HostSwitchGraph) -> bool:
        """Endpoints distinct, {sa,sb} present, {sa,sc} absent, host on sc."""
        sa, sb, sc = self.sa, self.sb, self.sc
        if len({sa, sb, sc}) != 3:
            return False
        if not graph.has_switch_edge(sa, sb):
            return False
        if graph.has_switch_edge(sa, sc):
            return False
        return graph.hosts_on(sc) >= 1

    def apply(self, graph: HostSwitchGraph) -> int:
        """Perform the swing; returns the id of the host that moved.

        Operation order (remove edge, move host, add edge) guarantees no
        transient radix violation.
        """
        graph.remove_switch_edge(self.sa, self.sb)
        self.moved_host = graph.move_any_host(self.sc, self.sb)
        graph.add_switch_edge(self.sa, self.sc)
        return self.moved_host

    def undo(self, graph: HostSwitchGraph) -> None:
        """Exact inverse of the last :meth:`apply` (same host moves back)."""
        if self.moved_host is None:
            raise RuntimeError("undo called before apply")
        graph.remove_switch_edge(self.sa, self.sc)
        graph.move_host(self.moved_host, self.sc)
        graph.add_switch_edge(self.sa, self.sb)
        self.moved_host = None

    def inverse(self) -> "SwingMove":
        """A fresh swing that reverses this one's net effect on counts."""
        return SwingMove(self.sa, self.sc, self.sb)

    def edge_changes(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """``(removed, added)`` switch-edge lists (the incremental-evaluator
        delta protocol; see :mod:`repro.core.incremental`)."""
        return [(self.sa, self.sb)], [(self.sa, self.sc)]

    def host_count_changes(self) -> list[tuple[int, int]]:
        """``(switch, delta)``: one host leaves ``sc`` and lands on ``sb``."""
        return [(self.sb, +1), (self.sc, -1)]


def propose_swap(
    edges: list[tuple[int, int]], rng: np.random.Generator, graph: HostSwitchGraph
) -> SwapMove | None:
    """Sample a random legal swap from an externally maintained edge list.

    ``edges`` must list every switch-switch edge exactly once; the annealer
    keeps it synchronised so sampling stays O(1).  Returns ``None`` when the
    sampled pair cannot be legally swapped (caller counts it as a rejected
    proposal, keeping proposal distribution unbiased).
    """
    if len(edges) < 2:
        return None
    # Two scalar draws: the same PCG64 stream as one size-2 draw, cheaper.
    i = rng.integers(0, len(edges))
    j = rng.integers(0, len(edges))
    if i == j:
        return None
    a, b = edges[int(i)]
    c, d = edges[int(j)]
    if rng.integers(0, 2):
        a, b = b, a
    if rng.integers(0, 2):
        c, d = d, c
    move = SwapMove(a, b, c, d)
    return move if move.is_legal(graph) else None


def propose_swing(
    edges: list[tuple[int, int]], rng: np.random.Generator, graph: HostSwitchGraph
) -> SwingMove | None:
    """Sample a random legal swing: random edge plus random host-bearing switch."""
    if not edges:
        return None
    a, b = edges[int(rng.integers(0, len(edges)))]
    if rng.integers(0, 2):
        a, b = b, a
    counts = graph.host_counts()
    bearing = np.flatnonzero(counts > 0)
    if len(bearing) == 0:
        return None
    sc = int(bearing[int(rng.integers(0, len(bearing)))])
    move = SwingMove(a, b, sc)
    return move if move.is_legal(graph) else None
