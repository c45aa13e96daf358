"""Bit-parallel multi-source BFS over ``uint64`` reachability bitmaps.

Bitmap layout (vertex-major packing)
------------------------------------
For ``S`` BFS sources the kernel keeps an ``(m, B)`` ``uint64`` array
``reach`` with ``B = ceil(S / 64)`` words per switch: bit ``j mod 64``
of ``reach[v, j // 64]`` means *source ``j`` has reached switch ``v``*.
Vertex-major rows keep the whole per-level advance a single batched
pass over **all** words at once:

1. ``np.take(frontier, indices, axis=0, out=buf)`` pulls each edge's
   source-side words in one row gather into a preallocated ``(2E, B)``
   buffer (``take`` with ``out=`` is ~2x faster than fancy indexing
   here and allocates nothing per level);
2. ``np.bitwise_or.reduceat(buf, starts, axis=0)`` ORs each switch's
   incoming words in one C call (restricting the segment starts to
   non-empty CSR rows makes ``reduceat`` partition the gather exactly —
   empty rows would otherwise corrupt neighboring segments);
3. ``fresh = nxt & ~reach`` masks out already-reached bits so the
   frontier carries only newly reached (switch, source) pairs.

Distance extraction never assigns levels into the matrix at all.  A
pair's distance equals the number of BFS iterations during which it is
still unreached, so each iteration unpacks ``~reach`` (a vertex-major
row is ``B * 8`` consecutive bytes — ``view(uint8)`` + ``unpackbits``,
no transpose) and adds the 0/1 mask into a ``uint32`` counter matrix.
One add per level beats a masked store by ~7x here, and the counters
cast to float64 exactly.  Pairs still unreached when the sweep ends get
``inf`` in a single final masked store, so disconnected and partitioned
fabrics need no special casing.

Each iteration first checks whether every source has reached every
switch and stops before the next advance, so a connected sweep never
pays for a level that cannot change the answer.

Work buffers (``reach``, frontier/fresh pair, the edge gather) are
recycled across calls through a small per-shape scratch cache.  Its
callers are whole sweeps: a distance engine's construction, its fallback
rebuilds and :func:`repro.core.metrics.switch_distance_matrix` callers,
which repeat one shape; fresh buffers measured 15-25% slower on a full
m=734 APSP.  The cache is per thread.  ``repro serve`` runs solves
in worker threads, and a thread switch (or NumPy releasing the GIL)
mid-call would otherwise let two same-shape calls overwrite each other's
bitmaps.  The returned matrix is always freshly allocated; no
caller-visible state aliases the scratch arrays.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core.kernels.csr import CSRAdjacency

__all__ = ["BitsetBackend"]

_LITTLE_ENDIAN = sys.byteorder == "little"
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _unpack(words: np.ndarray, num: int) -> np.ndarray:
    """``(rows, num)`` 0/1 byte mask from vertex-major ``(rows, B)`` words."""
    packed = words.view(np.uint8)
    if not _LITTLE_ENDIAN:  # pragma: no cover - little-endian containers
        rows, nbytes = packed.shape
        packed = np.ascontiguousarray(
            packed.reshape(rows, nbytes // 8, 8)[:, :, ::-1]
        ).reshape(rows, nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little", count=num)


class BitsetBackend:
    """Vectorised bit-parallel BFS: the repo's one BFS kernel."""

    name = "bitset"

    def __init__(self) -> None:
        self._local = threading.local()

    def _buffers(self, m: int, words: int, nnz: int) -> tuple[np.ndarray, ...]:
        """This thread's ``(reach, frontier, fresh, scratch, gathered)``."""
        local = self._local
        if not hasattr(local, "grid"):
            local.grid, local.edge = {}, {}
        grid = local.grid.get((m, words))
        if grid is None:
            if len(local.grid) > 8:  # one live workload at a time; stay tiny
                local.grid.clear()
            grid = tuple(np.empty((m, words), dtype=np.uint64) for _ in range(4))
            local.grid[(m, words)] = grid
        gathered = local.edge.get((nnz, words))
        if gathered is None:
            if len(local.edge) > 8:
                local.edge.clear()
            gathered = np.empty((nnz, words), dtype=np.uint64)
            local.edge[(nnz, words)] = gathered
        return (*grid, gathered)

    def bfs_distances(self, csr: CSRAdjacency, sources: np.ndarray) -> np.ndarray:
        """Distances from ``sources`` to every switch, ``(len(sources), m)``."""
        m = csr.num_switches
        sources = np.asarray(sources, dtype=np.int64)
        num = len(sources)
        if num == 0 or m == 0:
            return np.full((num, m), np.inf)
        words = (num + 63) >> 6
        j = np.arange(num)
        word = j >> 6
        bit = np.uint64(1) << (j & 63).astype(np.uint64)

        indptr = csr.indptr
        indices = csr.indices
        reach, frontier, fresh, scratch, gathered = self._buffers(m, words, len(indices))
        reach[:] = 0
        # Strictly-increasing sources (every whole-sweep caller) are
        # unique by construction; otherwise dedupe-check before scatter.
        increasing = num == 1 or bool((np.diff(sources) > 0).all())
        if increasing or len(np.unique(sources)) == num:
            reach[sources, word] = bit
        else:
            # Duplicate sources share a switch row; OR the bits in.
            np.bitwise_or.at(reach, (sources, word), bit)
        # Per-word all-sources bitmask: the sweep is settled once every
        # switch's reach words equal it.
        done_mask = np.full(words, _ALL_ONES)
        if num & 63:
            done_mask[-1] = (np.uint64(1) << np.uint64(num & 63)) - np.uint64(1)

        nonempty = np.flatnonzero(np.diff(indptr) > 0)
        full_rows = len(nonempty) == m
        starts = indptr[nonempty].astype(np.int64)
        frontier[:] = reach
        acc = np.zeros((m, num), dtype=np.uint32)
        settled = False
        while len(indices):
            # A pair's distance is the number of iterations it spends
            # unreached, so extraction is one unpack + one add per level.
            if (reach == done_mask[None, :]).all():
                settled = True
                break
            np.invert(reach, out=scratch)
            np.add(acc, _unpack(scratch, num), out=acc)
            np.take(frontier, indices, axis=0, out=gathered)
            # reduceat over non-empty row starts partitions the gather
            # exactly: consecutive starts bound each switch's edges.
            if full_rows:
                nxt = np.bitwise_or.reduceat(gathered, starts, axis=0)
            else:
                nxt = np.zeros((m, words), dtype=np.uint64)
                nxt[nonempty] = np.bitwise_or.reduceat(gathered, starts, axis=0)
            np.invert(reach, out=scratch)
            np.bitwise_and(nxt, scratch, out=fresh)
            if not fresh.any():
                break
            reach |= fresh
            frontier, fresh = fresh, frontier
        dist_t = acc.astype(np.float64)
        if not settled:
            # Disconnected/partitioned fabrics: whatever is still
            # unreached when the wavefront dies stays at distance inf.
            unreached = _unpack(reach, num) == 0
            np.copyto(dist_t, np.inf, where=unreached)
        return np.ascontiguousarray(dist_t.T)
