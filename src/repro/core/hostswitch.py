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

The swing operation moves "the highest-id host" off a switch, which the
attachment array alone answers only by an O(n) scan.  A per-switch host-id
index (``switch -> set of host ids``) answers it in O(k_s) instead.  It is
built lazily, on the first :meth:`HostSwitchGraph.move_any_host` call, so
graphs that never swing (compose fabrics, best-graph snapshots) never pay
its memory.  :meth:`~HostSwitchGraph.attach_host` and
:meth:`~HostSwitchGraph.move_host` keep it in sync, :meth:`~HostSwitchGraph.copy`
does not carry it, and :meth:`~HostSwitchGraph.validate` cross-checks it
against the attachment array when present.

The structure is mutable with O(1) edge/host moves so the simulated-annealing
search (Section 5) can apply and undo moves cheaply.

Legality (paper Section 3.1) has two owners.  The mutators' guards own
single edits: ids in range, no self loop or parallel edge, a free port.
:meth:`~HostSwitchGraph.validate` owns whole graphs, in NumPy passes
over the adjacency and attachment arrays.  Graphs whose whole edge list
is known up front (star, clique and regular graphs, the topology
families, compose fabrics, parsed HSG text) are built in bulk by
:meth:`HostSwitchGraph.from_edges`: NumPy checks of ids, self loops and
parallel edges, then the one :meth:`~HostSwitchGraph.validate`, and no
mutator (hence no contract check) per edge.  A set's iteration order
follows its insertion history, and the annealer samples edges in
:meth:`~HostSwitchGraph.switch_edges` order, so the bulk build fills
every neighbour set in edge order, exactly as one
:meth:`~HostSwitchGraph.add_switch_edge` per edge would.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import Any

import numpy as np

from repro.utils.contracts import graph_invariant
from repro.utils.validation import check_positive_int

__all__ = ["HostSwitchGraph"]

#: Switches :meth:`HostSwitchGraph.validate` reads per NumPy slice, which
#: keeps its temporaries small beside a 100k-host fabric's neighbour sets.
_VALIDATE_SLICE = 128


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
        "_hosts_by_switch",
    )

    def __init__(self, num_switches: int, radix: int) -> None:
        check_positive_int(num_switches, "num_switches")
        check_positive_int(radix, "radix")
        self._radix = radix
        self._adj: list[set[int]] = [set() for _ in range(num_switches)]
        self._host_switch: list[int] = []
        self._hosts_per_switch: list[int] = [0] * num_switches
        self._num_switch_edges = 0
        self._csr_version = 0
        self._csr_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        self._hosts_by_switch: list[set[int]] | None = None

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

    @graph_invariant
    def add_switch_edge(self, a: int, b: int) -> None:
        """Link switches ``a`` and ``b``; raises if illegal.

        Illegal cases: an endpoint outside ``0..m-1``, self loop, parallel
        edge, or either endpoint out of free ports.
        """
        m = len(self._adj)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"switch edge ({a}, {b}) names a switch outside 0..{m - 1}")
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

    @graph_invariant
    def remove_switch_edge(self, a: int, b: int) -> None:
        """Remove the switch-switch edge ``(a, b)``; raises if absent."""
        m = len(self._adj)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"switch edge ({a}, {b}) names a switch outside 0..{m - 1}")
        if b not in self._adj[a]:
            raise ValueError(f"switch edge ({a}, {b}) does not exist")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self._num_switch_edges -= 1
        self._bump_topology_version()

    @graph_invariant
    def attach_host(self, s: int) -> int:
        """Attach a new host to switch ``s`` and return its host id."""
        h = len(self._host_switch)
        if not 0 <= s < len(self._adj):
            raise ValueError(f"host {h} attached to invalid switch {s}")
        if self.free_ports(s) < 1:
            raise ValueError(f"switch {s} has no free port for a host")
        self._host_switch.append(s)
        self._hosts_per_switch[s] += 1
        if self._hosts_by_switch is not None:
            self._hosts_by_switch[s].add(h)
        return h

    @graph_invariant
    def move_host(self, h: int, to_switch: int) -> int:
        """Re-attach host ``h`` to ``to_switch``; returns the old switch."""
        n = len(self._host_switch)
        if not 0 <= h < n:
            raise ValueError(f"host {h} is outside 0..{n - 1}")
        if not 0 <= to_switch < len(self._adj):
            raise ValueError(f"host {h} attached to invalid switch {to_switch}")
        old = self._host_switch[h]
        if old == to_switch:
            return old
        if self.free_ports(to_switch) < 1:
            raise ValueError(f"switch {to_switch} has no free port for a host")
        self._host_switch[h] = to_switch
        self._hosts_per_switch[old] -= 1
        self._hosts_per_switch[to_switch] += 1
        if self._hosts_by_switch is not None:
            self._hosts_by_switch[old].remove(h)
            self._hosts_by_switch[to_switch].add(h)
        return old

    def move_any_host(self, from_switch: int, to_switch: int) -> int:
        """Move one (arbitrary but deterministic) host between switches.

        Used by the *swing* operation, which only cares about host counts.
        Returns the id of the host moved.  The highest-id host on
        ``from_switch`` is chosen so the operation is deterministic; the
        first call builds the per-switch host index that finds it.
        """
        m = len(self._adj)
        if not (0 <= from_switch < m and 0 <= to_switch < m):
            raise ValueError(
                f"host move ({from_switch}, {to_switch}) names a switch outside 0..{m - 1}"
            )
        if self._hosts_per_switch[from_switch] < 1:
            raise ValueError(f"switch {from_switch} has no host to move")
        if self._hosts_by_switch is None:
            self._hosts_by_switch = self._index_hosts()
        h = max(self._hosts_by_switch[from_switch])
        self.move_host(h, to_switch)
        return h

    def _index_hosts(self) -> list[set[int]]:
        """The per-switch host-id sets, built from the attachment array."""
        index: list[set[int]] = [set() for _ in self._adj]
        for h, s in enumerate(self._host_switch):
            index[s].add(h)
        return index

    # ------------------------------------------------------------------ #
    # Structure export
    # ------------------------------------------------------------------ #

    def _bump_topology_version(self) -> None:
        """Invalidate the cached CSR export (switch topology changed)."""
        self._csr_version += 1

    def switch_csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The switch adjacency as raw CSR ``(indptr, indices)`` int32 arrays.

        Rows are sorted ascending — the layout the BFS kernel of
        :mod:`repro.core.kernels` consumes.  Vectorised: the per-row sort
        is one stable sort of the row-major keys ``row * m + neighbour``
        (stable for the memory reason :meth:`validate` gives).

        The export is cached against a topology version bumped by
        :meth:`add_switch_edge`/:meth:`remove_switch_edge`, so repeated
        metric evaluations on an unchanged graph build it once.  Treat
        the returned arrays as read-only (they are shared with the
        cache).
        """
        version = self._csr_version
        cached = self._csr_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        m = self.num_switches
        counts = np.fromiter(map(len, self._adj), dtype=np.int32, count=m)
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        dtype = np.int32 if m * m < 2**31 else np.int64
        keys = np.fromiter(chain.from_iterable(self._adj), dtype=dtype, count=int(indptr[-1]))
        keys += np.repeat(np.arange(m, dtype=dtype) * m, counts)
        keys.sort(kind="stable")
        indices = (keys % m).astype(np.int32, copy=False)
        self._csr_cache = (version, indptr, indices)
        return indptr, indices

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
        dup._csr_version = self._csr_version
        dup._csr_cache = self._csr_cache
        # The host index is not carried: most copies (best-graph snapshots)
        # never swing, and one that does rebuilds it on first use.
        dup._hosts_by_switch = None
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

        NumPy passes over the adjacency and attachment arrays, in this
        order: no self loop, neighbours inside ``0..m-1``, symmetric
        adjacency, the edge counter, hosts on valid switches, host counts
        and (when built) the per-switch host index consistent with the
        attachment array, and the radix respected at every switch.  Each
        breach names the lowest-id offending switch (or host); a one-way
        arc is named in its stored orientation.
        """
        m = len(self._adj)
        degree = np.fromiter(map(len, self._adj), dtype=np.int64, count=m)
        loops = np.fromiter(map(operator.contains, self._adj, range(m)), dtype=bool, count=m)
        if loops.any():
            raise ValueError(f"self loop at switch {loops.argmax()}")
        # With no self loop and no repeat within a neighbour set, the pair
        # {a, b} is stored at most twice, and twice iff both arcs are: the
        # sorted keys pair up at even and odd positions iff symmetric.  A
        # stable sort, because the default one pages in NumPy's SIMD sort
        # code, which raised a 100k-host build's peak RSS.
        keys = self._pair_keys(degree)
        keys.sort(kind="stable")
        if keys.size % 2 or not np.array_equal(keys[0::2], keys[1::2]):
            a, b = self._one_way_arc(degree, keys)
            raise ValueError(f"asymmetric adjacency at edge ({a}, {b})")
        del keys
        if int(degree.sum()) != 2 * self._num_switch_edges:
            raise ValueError("switch edge counter desynchronised from adjacency")
        hosts = np.array(self._host_switch, dtype=np.int64)
        bad = np.flatnonzero((hosts < 0) | (hosts >= m))
        if bad.size:
            h = bad[0]
            raise ValueError(f"host {h} attached to invalid switch {hosts[h]}")
        counts = np.bincount(hosts, minlength=m)
        recorded = np.array(self._hosts_per_switch, dtype=np.int64)
        off = np.flatnonzero(counts != recorded)
        if off.size:
            s = off[0]
            raise ValueError(
                f"per-switch host counts desynchronised at switch {s}: "
                f"counter says {recorded[s]}, attachment array has {counts[s]}"
            )
        index = self._hosts_by_switch
        if index is not None:
            for s, attached in enumerate(self._index_hosts()):
                if index[s] != attached:
                    raise ValueError(
                        f"host index desynchronised at switch {s}: index lists "
                        f"{sorted(index[s])}, attachment array has {sorted(attached)}"
                    )
        over = np.flatnonzero(degree + recorded > self._radix)
        if over.size:
            s = over[0]
            raise ValueError(
                f"switch {s} exceeds its port budget: {degree[s] + recorded[s]} "
                f"ports used ({degree[s]} switch links + {recorded[s]} hosts) "
                f"> radix {self._radix}"
            )

    def _pair_keys(self, degree: np.ndarray) -> np.ndarray:
        """``min(a, b) * m + max(a, b)`` for every stored arc ``b in _adj[a]``.

        Read a slice of switches at a time, so the temporaries stay small
        beside the one key per arc; raises on a neighbour outside
        ``0..m-1``, naming the first arc of the lowest-id switch.
        """
        m = len(self._adj)
        keys = np.empty(int(degree.sum()), dtype=np.int32 if m * m < 2**31 else np.int64)
        pos = 0
        for lo in range(0, m, _VALIDATE_SLICE):
            sliced = degree[lo : lo + _VALIDATE_SLICE]
            count = int(sliced.sum())
            heads = np.fromiter(
                chain.from_iterable(self._adj[lo : lo + _VALIDATE_SLICE]),
                dtype=np.int64,
                count=count,
            )
            tails = np.repeat(np.arange(lo, lo + sliced.size), sliced)
            bad = np.flatnonzero((heads < 0) | (heads >= m))
            if bad.size:
                i = bad[0]
                raise ValueError(f"edge ({tails[i]}, {heads[i]}) leaves the switch range")
            keys[pos : pos + count] = np.minimum(heads, tails) * m + np.maximum(heads, tails)
            pos += count
        return keys

    def _one_way_arc(self, degree: np.ndarray, sorted_keys: np.ndarray) -> tuple[int, int]:
        """The first stored arc of the lowest-id switch whose reverse is missing."""
        keys, counts = np.unique(sorted_keys, return_counts=True)
        i = np.flatnonzero(np.isin(self._pair_keys(degree), keys[counts == 1]))[0]
        heads = np.fromiter(chain.from_iterable(self._adj), dtype=np.int64, count=sorted_keys.size)
        return int(np.repeat(np.arange(degree.size), degree)[i]), int(heads[i])

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
        switch_edges: Iterable[tuple[int, int]] | np.ndarray,
        host_attachments: Iterable[int] | np.ndarray,
    ) -> "HostSwitchGraph":
        """Build a validated graph from whole edge and attachment arrays.

        The bulk constructor for every graph whose edge list is known up
        front: switch range, self loops, parallel edges in either
        orientation and the host switch range are checked over the whole
        arrays before the neighbour sets are built, and :meth:`validate`
        checks the result (the port budgets among it).  Edge ``i`` is
        added as the ``i``-th :meth:`add_switch_edge` would add it and host
        ``h`` is attached to ``host_attachments[h]``, so the graph equals
        the edge-by-edge build down to :meth:`switch_edges` order.  Raises
        ``ValueError`` naming the first offending edge, host or switch.
        """
        g = cls(num_switches, radix)
        m = num_switches
        edges = _index_array(switch_edges, "switch_edges").reshape(-1, 2)
        hosts = _index_array(host_attachments, "host_attachments").reshape(-1)
        _check_edge_array(edges, m)
        bad = np.flatnonzero((hosts < 0) | (hosts >= m))
        if bad.size:
            h = int(bad[0])
            raise ValueError(f"host {h} attached to invalid switch {int(hosts[h])}")
        flat = edges.ravel()
        degree = np.bincount(flat, minlength=m)
        count = np.bincount(hosts, minlength=m)
        # A stable sort of the endpoints [a0, b0, a1, b1, ...] lists each
        # switch's edges in edge order; position p's neighbour is p ^ 1.
        order = np.argsort(flat, kind="stable")
        np.bitwise_xor(order, 1, out=order)
        neighbours = flat[order]
        del order
        # One int object per switch id, shared by every set and the
        # attachment list (no per-element int allocations).
        ids = np.arange(m).astype(object)
        nbr_ids = ids[neighbours].tolist()
        del neighbours
        bounds = [0, *np.cumsum(degree).tolist()]
        g._adj = [set(nbr_ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        del nbr_ids
        g._host_switch = ids[hosts].tolist()
        g._hosts_per_switch = count.tolist()
        g._num_switch_edges = len(edges)
        g.validate()
        return g


def _index_array(values: Iterable[Any] | np.ndarray, what: str) -> np.ndarray:
    """``values`` as an integer array (an ndarray is used as it is)."""
    arr = values if isinstance(values, np.ndarray) else np.array(list(values))
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{what} must hold integers, got dtype {arr.dtype}")
    return arr


def _check_edge_array(edges: np.ndarray, m: int) -> None:
    """Reject out-of-range ids, self loops and parallel edges in ``edges``."""
    if not edges.size:
        return
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    bad = np.flatnonzero((lo < 0) | (hi >= m))
    if bad.size:
        a, b = edges[bad[0]].tolist()
        raise ValueError(f"switch edge ({a}, {b}) names a switch outside 0..{m - 1}")
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise ValueError(f"self loop on switch {int(lo[loops[0]])} is not allowed")
    key = lo.astype(np.int64) * m + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeats = np.flatnonzero(key[1:] == key[:-1])
    if repeats.size:
        # The stable sort keeps equal keys in edge order, so the earliest
        # edge that repeats an earlier one is the least order[i + 1].
        a, b = edges[order[repeats + 1].min()].tolist()
        raise ValueError(f"switch edge ({a}, {b}) already exists")
