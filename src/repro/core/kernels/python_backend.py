"""Pure-Python/NumPy BFS — the test-side reference kernel.

This is PR 2's batched frontier BFS verbatim: a dense float32 0/1
adjacency, one ``(rows, m) @ (m, m)`` matmul per BFS level, ``inf`` for
unreachable switches.  The property suites assert that
:data:`repro.core.kernels.KERNEL` is bit-identical to this one (distances
are small integers, exactly representable in float64, so "bit-identical"
is achievable and checked).  Production code never calls it.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.csr import CSRAdjacency

__all__ = ["PythonBackend"]


class PythonBackend:
    """Reference kernel: dense matmul frontier BFS (slow, exact)."""

    name = "python"

    def bfs_distances(self, csr: CSRAdjacency, sources: np.ndarray) -> np.ndarray:
        """Distances from ``sources`` to every switch, ``(len(sources), m)``.

        One BFS level per matmul: the frontier of all sources advances
        together, so the per-level cost is a single
        ``(len(sources), m) @ (m, m)`` product regardless of how many
        rows are being computed.  Unreachable switches stay ``inf``.
        """
        adjacency = csr.dense_float32()
        m = adjacency.shape[0]
        sources = np.asarray(sources, dtype=np.int64)
        num = len(sources)
        dist = np.full((num, m), np.inf)
        if num == 0:
            return dist
        rows = np.arange(num)
        dist[rows, sources] = 0.0
        frontier = np.zeros((num, m), dtype=np.float32)
        frontier[rows, sources] = 1.0
        level = 0.0
        while True:
            level += 1.0
            reached = frontier @ adjacency
            fresh = (reached > 0.0) & np.isinf(dist)
            if not fresh.any():
                return dist
            dist[fresh] = level
            frontier = fresh.astype(np.float32)
