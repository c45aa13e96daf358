"""Shared CSR switch-adjacency for the BFS kernel.

The kernel and its test reference consume the same compressed-sparse-row
structure — ``indptr``/``indices`` ``int32`` arrays — so a graph is
converted once and then shared across all BFS calls instead of
re-deriving neighbor lists per source row.

The structure is immutable by convention: :meth:`with_edge_removed` /
:meth:`with_edge_added` return a *new* :class:`CSRAdjacency` sharing no
mutable state with the parent, as O(E) slice copies.  No code in
``src/`` calls them: the distance engine of :mod:`repro.core.incremental`
edits a fixed-width neighbour table in place and builds a CSR from it
only when the kernel runs.  They stay because the end-to-end
benchmark's tracer wraps both by name (its ``kernels.csr_copy`` layer)
and fails without them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRAdjacency"]


class CSRAdjacency:
    """Undirected switch adjacency in CSR form (``int32``).

    ``indptr`` has length ``m + 1`` and ``indices`` length ``2E`` (each
    undirected edge appears in both endpoint rows).  The kernel does not
    need sorted rows, and a CSR built from the neighbour table of
    :mod:`repro.core.incremental` keeps each row in slot order.  The
    constructors sort rows ascending, which the edit methods rely on for
    binary search.
    """

    __slots__ = ("indptr", "indices", "_dense")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self._dense: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, graph) -> "CSRAdjacency":
        """CSR of a :class:`repro.core.hostswitch.HostSwitchGraph`."""
        indptr, indices = graph.switch_csr_arrays()
        return cls(indptr, indices)

    @classmethod
    def from_edges(cls, num_switches: int, edges) -> "CSRAdjacency":
        """CSR from an iterable of undirected ``(a, b)`` switch pairs."""
        pairs = list(edges)
        m = num_switches
        if not pairs:
            return cls(np.zeros(m + 1, dtype=np.int32), np.zeros(0, dtype=np.int32))
        arr = np.asarray(pairs, dtype=np.int32)
        rows = np.concatenate([arr[:, 0], arr[:, 1]])
        cols = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_switches(self) -> int:
        return len(self.indptr) - 1

    def dense_float32(self) -> np.ndarray:
        """Dense float32 0/1 adjacency (cached; the reference kernel's input)."""
        if self._dense is None:
            m = self.num_switches
            dense = np.zeros((m, m), dtype=np.float32)
            if len(self.indices):
                rows = np.repeat(
                    np.arange(m, dtype=np.int32), np.diff(self.indptr)
                )
                dense[rows, self.indices] = 1.0
            self._dense = dense
        return self._dense

    # ------------------------------------------------------------------ #
    # Single-edge edits (return a new CSRAdjacency)
    # ------------------------------------------------------------------ #

    def _slot(self, u: int, v: int) -> tuple[int, bool]:
        """Flat position of ``v`` within row ``u`` and whether it is present."""
        lo = int(self.indptr[u])
        row = self.indices[lo : int(self.indptr[u + 1])]
        i = int(np.searchsorted(row, v))
        return lo + i, i < len(row) and int(row[i]) == v

    def with_edge_removed(self, u: int, v: int) -> "CSRAdjacency":
        """A new CSR without undirected edge ``{u, v}`` (must be present)."""
        self._check_pair(u, v)
        pu, ok_u = self._slot(u, v)
        pv, ok_v = self._slot(v, u)
        if not (ok_u and ok_v):
            raise ValueError(f"no switch edge {{{u}, {v}}} to remove")
        out = CSRAdjacency.__new__(CSRAdjacency)
        # Three slice copies beat np.delete's mask path ~4x on these sizes.
        p, q = (pu, pv) if pu < pv else (pv, pu)
        src = self.indices
        cut = np.empty(len(src) - 2, dtype=np.int32)
        cut[:p] = src[:p]
        cut[p : q - 1] = src[p + 1 : q]
        cut[q - 1 :] = src[q + 1 :]
        out.indices = cut
        indptr = self.indptr.copy()
        indptr[u + 1 :] -= 1
        indptr[v + 1 :] -= 1
        out.indptr = indptr
        out._dense = None
        return out

    def with_edge_added(self, u: int, v: int) -> "CSRAdjacency":
        """A new CSR with undirected edge ``{u, v}`` (must be absent)."""
        self._check_pair(u, v)
        pu, ok_u = self._slot(u, v)
        pv, ok_v = self._slot(v, u)
        if ok_u or ok_v:
            raise ValueError(f"switch edge {{{u}, {v}}} already present")
        out = CSRAdjacency.__new__(CSRAdjacency)
        # Four slice copies beat np.insert's fancy path ~4x on these sizes.
        # Equal slots (empty-row boundary) tie-break by owning row so each
        # value lands inside its own row's segment.
        (p, _, a), (q, _, b) = sorted(((pu, u, v), (pv, v, u)))
        src = self.indices
        grown = np.empty(len(src) + 2, dtype=np.int32)
        grown[:p] = src[:p]
        grown[p] = a
        grown[p + 1 : q + 1] = src[p:q]
        grown[q + 1] = b
        grown[q + 2 :] = src[q:]
        out.indices = grown
        indptr = self.indptr.copy()
        indptr[u + 1 :] += 1
        indptr[v + 1 :] += 1
        out.indptr = indptr
        out._dense = None
        return out

    def _check_pair(self, u: int, v: int) -> None:
        m = self.num_switches
        for s in (u, v):
            if not 0 <= s < m:
                raise ValueError(f"switch id {s} out of range [0, {m})")
        if u == v:
            raise ValueError(f"self-loop {{{u}, {v}}} is not a switch edge")
