"""The BFS kernel behind the distance/h-ASPL hot path.

Every distance computation in this repo — ``metrics.switch_distance_matrix``
and the :class:`repro.core.incremental.DynamicDistanceMatrix` repair engine
(which the annealer's :class:`~repro.core.incremental.IncrementalEvaluator`
extends) — calls :data:`KERNEL`, one :class:`BitsetBackend` instance, over
a shared :class:`CSRAdjacency`.

:class:`repro.core.kernels.python_backend.PythonBackend`, PR 2's dense
matmul BFS, stays in this package as the test-side reference: the
property suites assert that :data:`KERNEL` is bit-identical to it
(distances are small integers, exact in float64).  Nothing in ``src/``
selects it.

Callers look the method up at call time (``KERNEL.bfs_distances(...)``),
never capture a bound method at import, so a class-level wrapper around
``BitsetBackend.bfs_distances`` (the end-to-end benchmark's tracer) sees
every BFS.
"""

from __future__ import annotations

from repro.core.kernels.bitset_backend import BitsetBackend
from repro.core.kernels.csr import CSRAdjacency

__all__ = ["KERNEL", "BitsetBackend", "CSRAdjacency"]

#: The one BFS kernel; its scratch buffers are shared by every caller.
KERNEL = BitsetBackend()
