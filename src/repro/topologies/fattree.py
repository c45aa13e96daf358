"""Three-layer K-ary fat-tree host-switch graph (paper Section 6.1.3).

The Al-Fares K-ary fat-tree (a folded-Clos instance): ``K`` pods, each with
``K/2`` edge switches and ``K/2`` aggregation switches, plus ``(K/2)^2``
core switches.  Every switch has ``K`` ports (Formulae 5a-5c):

- ``r = K``,
- ``m = 5 K^2 / 4``,
- ``n = K^3 / 4`` (each edge switch carries exactly ``K/2`` hosts).

Switch numbering: pods first (edge switches then aggregation switches per
pod), then core switches, so host attachment in index order lands on edge
switches exactly as the construction requires.
"""

from __future__ import annotations

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["fat_tree", "fat_tree_spec", "fat_tree_switch_edges"]


def fat_tree_spec(k: int) -> TopologySpec:
    """Derived parameters of the K-ary fat-tree."""
    check_positive_int(k, "k")
    if k % 2 != 0:
        raise ValueError(f"K-ary fat-tree needs even K, got {k}")
    return TopologySpec(
        name="fat-tree",
        num_switches=5 * k * k // 4,
        radix=k,
        max_hosts=k**3 // 4,
        params={"K": k},
    )


def _edge_switch(k: int, pod: int, i: int) -> int:
    return pod * k + i


def _agg_switch(k: int, pod: int, i: int) -> int:
    return pod * k + k // 2 + i


def _core_switch(k: int, i: int, j: int) -> int:
    return k * k + i * (k // 2) + j


def fat_tree_switch_edges(k: int) -> list[tuple[int, int]]:
    """Switch edges of the K-ary fat-tree.

    Within a pod every edge switch links to every aggregation switch.
    Core switch ``(i, j)`` links to aggregation switch ``i`` of every pod
    (its ``j`` spreads the ``K/2`` core links of that aggregation switch).
    """
    half = k // 2
    edges: list[tuple[int, int]] = []
    for pod in range(k):
        for e in range(half):
            for a in range(half):
                edges.append((_edge_switch(k, pod, e), _agg_switch(k, pod, a)))
    for i in range(half):
        for j in range(half):
            core = _core_switch(k, i, j)
            for pod in range(k):
                u, v = _agg_switch(k, pod, i), core
                edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def fat_tree(k: int, num_hosts: int | None = None) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a K-ary fat-tree; hosts fill edge switches in index order.

    That is the sequential fill: aggregation and core switches spend all
    ``K`` ports on links, so only edge switches have free ports.

    The paper's comparison instance is ``K = 16``: ``r = 16``, ``m = 320``,
    ``n = 1024``.
    """
    return build_graph(fat_tree_spec(k), fat_tree_switch_edges(k), num_hosts)
