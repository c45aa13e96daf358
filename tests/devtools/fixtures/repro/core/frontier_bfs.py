"""REP014 seeded fixture: a hand-rolled frontier BFS in repro.core.

Both probes advance a wavefront while filling a distance array by hand
— exactly the private BFS fork :mod:`repro.core.kernels` exists to
prevent.  The kernel layer's ``KERNEL.bfs_distances`` is batched,
bit-parallel, and tested bit-identical to the reference kernel; neither
property survives a local re-implementation.
"""

from collections import deque

import numpy as np


def level_bfs(adj, source, num):
    dist = np.full(num, np.inf)
    dist[source] = 0.0
    frontier = [source]
    depth = 0.0
    while frontier:
        depth += 1.0
        nxt = []
        for vertex in frontier:
            for neighbor in adj[vertex]:
                if np.isinf(dist[neighbor]):
                    dist[neighbor] = depth
                    nxt.append(neighbor)
        frontier = nxt
    return dist


def queue_bfs(adj, source, num):
    dist = np.full(num, np.inf)
    dist[source] = 0.0
    pending = deque([source])
    while pending:
        vertex = pending.popleft()
        for neighbor in adj[vertex]:
            if np.isinf(dist[neighbor]):
                dist[neighbor] = dist[vertex] + 1.0
                pending.append(neighbor)
    return dist
