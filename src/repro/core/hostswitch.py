"""The host-switch graph model (paper Section 3.1).

A host-switch graph ``G = (H, S, E)`` has ``n`` host vertices, ``m`` switch
vertices, and edges that are either switch-switch or host-switch.  Every host
is attached to exactly one switch; every switch uses at most ``r`` ports
(switch-switch edges plus attached hosts).

Representation
--------------
Switches are integers ``0 .. m-1``.  The switch-switch topology is kept as a
list of adjacency sets (simple graph: no self loops, no parallel edges, which
matches the paper's model).  Hosts are integers ``0 .. n-1`` stored as an
attachment array ``host -> switch``; per-switch host *counts* are maintained
incrementally because the h-ASPL depends on counts only.

The structure is mutable with O(1) edge/host moves so the simulated-annealing
search (Section 5) can apply and undo moves cheaply.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.utils.contracts import graph_invariant
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = ["HostSwitchGraph"]


class HostSwitchGraph:
    """A mutable host-switch graph with radix (port-count) accounting.

    Parameters
    ----------
    num_switches:
        Number of switch vertices ``m`` (>= 1).
    radix:
        Maximum ports per switch ``r`` (>= 3 for any non-trivial network,
        but smaller values are permitted for degenerate test graphs).

    Examples
    --------
    >>> g = HostSwitchGraph(num_switches=2, radix=4)
    >>> g.add_switch_edge(0, 1)
    >>> [g.attach_host(0), g.attach_host(0), g.attach_host(1)]
    [0, 1, 2]
    >>> g.ports_used(0)
    3
    """

    __slots__ = (
        "_radix",
        "_adj",
        "_host_switch",
        "_hosts_per_switch",
        "_num_switch_edges",
        "_csr_version",
        "_csr_cache",
    )

    def __init__(self, num_switches: int, radix: int) -> None:
        check_positive_int(num_switches, "num_switches")
        check_positive_int(radix, "radix")
        self._radix = radix
        self._adj: list[set[int]] = [set() for _ in range(num_switches)]
        self._host_switch: list[int] = []
        self._hosts_per_switch: list[int] = [0] * num_switches
        self._num_switch_edges = 0

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def radix(self) -> int:
        """Maximum number of ports per switch (``r``)."""
        return self._radix

    @property
    def num_switches(self) -> int:
        """Number of switch vertices (``m``)."""
        return len(self._adj)

    @property
    def num_hosts(self) -> int:
        """Number of host vertices (``n``, the *order*)."""
        return len(self._host_switch)

    @property
    def num_switch_edges(self) -> int:
        """Number of switch-switch edges."""
        return self._num_switch_edges

    @property
    def num_edges(self) -> int:
        """Total edges (switch-switch plus host-switch)."""
        return self._num_switch_edges + self.num_hosts

    def switch_degree(self, s: int) -> int:
        """Number of switch-switch edges incident to switch ``s``."""
        return len(self._adj[s])

    def hosts_on(self, s: int) -> int:
        """Number of hosts attached to switch ``s`` (``k_s`` in the paper)."""
        return self._hosts_per_switch[s]

    def ports_used(self, s: int) -> int:
        """Ports in use at switch ``s``: switch links plus attached hosts."""
        return len(self._adj[s]) + self._hosts_per_switch[s]

    def free_ports(self, s: int) -> int:
        """Ports still available at switch ``s``."""
        return self._radix - self.ports_used(s)

    def host_attachment(self, h: int) -> int:
        """The switch that host ``h`` is attached to."""
        return self._host_switch[h]

    def host_attachments(self) -> np.ndarray:
        """Array of length ``n`` mapping each host to its switch."""
        return np.asarray(self._host_switch, dtype=np.int64)

    def host_counts(self) -> np.ndarray:
        """Array of length ``m`` with the number of hosts per switch."""
        return np.asarray(self._hosts_per_switch, dtype=np.int64)

    def neighbors(self, s: int) -> frozenset[int]:
        """Switch neighbours of switch ``s`` (a snapshot, safe to iterate)."""
        return frozenset(self._adj[s])

    def has_switch_edge(self, a: int, b: int) -> bool:
        """Whether switches ``a`` and ``b`` are directly linked."""
        return b in self._adj[a]

    def switch_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over switch-switch edges as ``(a, b)`` with ``a < b``."""
        for a, nbrs in enumerate(self._adj):
            for b in nbrs:
                if a < b:
                    yield (a, b)

    def hosts_of_switch(self, s: int) -> list[int]:
        """All host ids attached to switch ``s`` (O(n) scan)."""
        return [h for h, sw in enumerate(self._host_switch) if sw == s]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    @graph_invariant(touched=lambda self, result, a, b: (a, b))
    def add_switch_edge(self, a: int, b: int) -> None:
        """Link switches ``a`` and ``b``; raises if illegal.

        Illegal cases: self loop, parallel edge, or either endpoint out of
        free ports.
        """
        if a == b:
            raise ValueError(f"self loop on switch {a} is not allowed")
        if b in self._adj[a]:
            raise ValueError(f"switch edge ({a}, {b}) already exists")
        if self.free_ports(a) < 1:
            raise ValueError(f"switch {a} has no free port (radix {self._radix})")
        if self.free_ports(b) < 1:
            raise ValueError(f"switch {b} has no free port (radix {self._radix})")
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._num_switch_edges += 1
        self._bump_topology_version()

    @graph_invariant(touched=lambda self, result, a, b: (a, b))
    def remove_switch_edge(self, a: int, b: int) -> None:
        """Remove the switch-switch edge ``(a, b)``; raises if absent."""
        if b not in self._adj[a]:
            raise ValueError(f"switch edge ({a}, {b}) does not exist")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self._num_switch_edges -= 1
        self._bump_topology_version()

    @graph_invariant(touched=lambda self, result, s: (s,))
    def attach_host(self, s: int) -> int:
        """Attach a new host to switch ``s`` and return its host id."""
        if self.free_ports(s) < 1:
            raise ValueError(f"switch {s} has no free port for a host")
        self._host_switch.append(s)
        self._hosts_per_switch[s] += 1
        return len(self._host_switch) - 1

    @graph_invariant(touched=lambda self, result, h, to_switch: (result, to_switch))
    def move_host(self, h: int, to_switch: int) -> int:
        """Re-attach host ``h`` to ``to_switch``; returns the old switch."""
        old = self._host_switch[h]
        if old == to_switch:
            return old
        if self.free_ports(to_switch) < 1:
            raise ValueError(f"switch {to_switch} has no free port for a host")
        self._host_switch[h] = to_switch
        self._hosts_per_switch[old] -= 1
        self._hosts_per_switch[to_switch] += 1
        return old

    def move_any_host(self, from_switch: int, to_switch: int) -> int:
        """Move one (arbitrary but deterministic) host between switches.

        Used by the *swing* operation, which only cares about host counts.
        Returns the id of the host moved.  The highest-id host on
        ``from_switch`` is chosen so the operation is deterministic.
        """
        if self._hosts_per_switch[from_switch] < 1:
            raise ValueError(f"switch {from_switch} has no host to move")
        for h in range(len(self._host_switch) - 1, -1, -1):
            if self._host_switch[h] == from_switch:
                self.move_host(h, to_switch)
                return h
        raise AssertionError("host count desynchronised from attachment array")

    # ------------------------------------------------------------------ #
    # Structure export
    # ------------------------------------------------------------------ #

    def _bump_topology_version(self) -> None:
        """Invalidate the cached CSR export (switch topology changed)."""
        self._csr_version = getattr(self, "_csr_version", 0) + 1

    def switch_csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The switch adjacency as raw CSR ``(indptr, indices)`` int32 arrays.

        Rows are sorted ascending — the layout the BFS kernel of
        :mod:`repro.core.kernels` consumes.  Cheaper than
        :meth:`switch_csr` (no scipy matrix wrapper) and vectorised: the
        per-row sort happens in one ``lexsort`` over the flat edge list.

        The export is cached against a topology version bumped by
        :meth:`add_switch_edge`/:meth:`remove_switch_edge`, so repeated
        metric evaluations on an unchanged graph build it once.  Treat
        the returned arrays as read-only (they are shared with the
        cache).
        """
        version = getattr(self, "_csr_version", 0)
        cached = getattr(self, "_csr_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        m = self.num_switches
        counts = np.fromiter(
            (len(nbrs) for nbrs in self._adj), dtype=np.int32, count=m
        )
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        flat = np.fromiter(
            (b for nbrs in self._adj for b in nbrs), dtype=np.int32, count=total
        )
        rows = np.repeat(np.arange(m, dtype=np.int32), counts)
        order = np.lexsort((flat, rows))
        indices = flat[order]
        self._csr_cache = (version, indptr, indices)
        return indptr, indices

    def switch_csr(self) -> sparse.csr_matrix:
        """The switch-switch adjacency as a scipy CSR boolean matrix."""
        m = self.num_switches
        indptr = np.zeros(m + 1, dtype=np.int64)
        for s, nbrs in enumerate(self._adj):
            indptr[s + 1] = indptr[s] + len(nbrs)
        indices = np.empty(indptr[-1], dtype=np.int64)
        pos = 0
        for nbrs in self._adj:
            for b in sorted(nbrs):
                indices[pos] = b
                pos += 1
        data = np.ones(len(indices), dtype=np.int8)
        return sparse.csr_matrix((data, indices, indptr), shape=(m, m))

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``kind`` node attributes.

        Host nodes are labelled ``("h", i)`` and switch nodes ``("s", j)``.
        Requires networkx (test/analysis dependency, imported lazily).
        """
        import networkx as nx

        g = nx.Graph()
        for s in range(self.num_switches):
            g.add_node(("s", s), kind="switch")
        for a, b in self.switch_edges():
            g.add_edge(("s", a), ("s", b))
        for h, s in enumerate(self._host_switch):
            g.add_node(("h", h), kind="host")
            g.add_edge(("h", h), ("s", s))
        return g

    def copy(self) -> "HostSwitchGraph":
        """Deep copy (independent adjacency and host state)."""
        dup = HostSwitchGraph.__new__(HostSwitchGraph)
        dup._radix = self._radix
        dup._adj = [set(nbrs) for nbrs in self._adj]
        dup._host_switch = list(self._host_switch)
        dup._hosts_per_switch = list(self._hosts_per_switch)
        dup._num_switch_edges = self._num_switch_edges
        # The CSR export cache is immutable-by-convention; sharing it with
        # the copy is safe and saves a rebuild on the first metric call.
        dup._csr_version = getattr(self, "_csr_version", 0)
        dup._csr_cache = getattr(self, "_csr_cache", None)
        return dup

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    def is_switch_graph_connected(self) -> bool:
        """Whether the switch-switch graph is connected (BFS)."""
        m = self.num_switches
        if m <= 1:
            return True
        seen = [False] * m
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            s = stack.pop()
            for b in self._adj[s]:
                if not seen[b]:
                    seen[b] = True
                    count += 1
                    stack.append(b)
        return count == m

    def validate(self) -> None:
        """Check every structural invariant; raise ``ValueError`` on breach.

        Invariants: symmetric simple switch adjacency, radix respected at
        every switch, host counts consistent with the attachment array.
        """
        m = self.num_switches
        edge_count = 0
        for a, nbrs in enumerate(self._adj):
            if a in nbrs:
                raise ValueError(f"self loop at switch {a}")
            for b in nbrs:
                if not 0 <= b < m:
                    raise ValueError(f"edge ({a}, {b}) leaves the switch range")
                if a not in self._adj[b]:
                    raise ValueError(f"asymmetric adjacency at edge ({a}, {b})")
            edge_count += len(nbrs)
        if edge_count != 2 * self._num_switch_edges:
            raise ValueError("switch edge counter desynchronised from adjacency")
        counts = [0] * m
        for h, s in enumerate(self._host_switch):
            if not 0 <= s < m:
                raise ValueError(f"host {h} attached to invalid switch {s}")
            counts[s] += 1
        if counts != self._hosts_per_switch:
            for s in range(m):
                if counts[s] != self._hosts_per_switch[s]:
                    raise ValueError(
                        f"per-switch host counts desynchronised at switch {s}: "
                        f"counter says {self._hosts_per_switch[s]}, attachment "
                        f"array has {counts[s]}"
                    )
        for s in range(m):
            used = self.ports_used(s)
            if used > self._radix:
                raise ValueError(
                    f"switch {s} exceeds its port budget: {used} ports used "
                    f"({len(self._adj[s])} switch links + "
                    f"{self._hosts_per_switch[s]} hosts) > radix {self._radix}"
                )

    # ------------------------------------------------------------------ #
    # Dunder conveniences
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"HostSwitchGraph(n={self.num_hosts}, m={self.num_switches}, "
            f"r={self._radix}, switch_edges={self._num_switch_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HostSwitchGraph):
            return NotImplemented
        return (
            self._radix == other._radix
            and self._adj == other._adj
            and self._host_switch == other._host_switch
        )

    @classmethod
    def from_edges(
        cls,
        num_switches: int,
        radix: int,
        switch_edges: Iterable[tuple[int, int]],
        host_attachments: Iterable[int],
    ) -> "HostSwitchGraph":
        """Build a graph from explicit edge and host-attachment lists."""
        check_nonnegative_int(num_switches, "num_switches")
        g = cls(num_switches, radix)
        for a, b in switch_edges:
            g.add_switch_edge(a, b)
        for s in host_attachments:
            g.attach_host(s)
        g.validate()
        return g
