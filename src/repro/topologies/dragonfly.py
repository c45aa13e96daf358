"""Dragonfly host-switch graph (paper Section 6.1.2; Kim et al., ISCA'08).

The paper's balanced configuration: parameters ``(a, h, g, p)`` with
``a = 2h = 2p`` and ``g = a*h + 1`` so there is *exactly one* global link
between every pair of groups.  Then (Formulae 4a-4c):

- radix ``r = (a-1) + h + p = 2a - 1``,
- switches ``m = a * (a^2/2 + 1)``,
- hosts ``n <= p * m``.

Groups are ``a``-switch cliques; global links follow the canonical
consecutive assignment (group ``x``'s global port ``q`` reaches group
``(x + q + 1) mod g``, arriving on port ``g - 2 - q``), which realises the
one-link-per-group-pair requirement exactly.
"""

from __future__ import annotations

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["dragonfly", "dragonfly_spec", "dragonfly_switch_edges"]


def dragonfly_spec(a: int) -> TopologySpec:
    """Derived parameters for the balanced dragonfly with group size ``a``."""
    check_positive_int(a, "a")
    if a % 2 != 0:
        raise ValueError(f"balanced dragonfly needs even a (a = 2h = 2p), got {a}")
    h = a // 2
    p = a // 2
    g = a * h + 1
    m = a * g
    return TopologySpec(
        name="dragonfly",
        num_switches=m,
        radix=2 * a - 1,
        max_hosts=p * m,
        params={"a": a, "h": h, "p": p, "g": g},
    )


def dragonfly_switch_edges(a: int) -> list[tuple[int, int]]:
    """Switch edges of the balanced dragonfly.

    Switch ``j`` of group ``x`` has global index ``x * a + j``.  Intra-group
    links form the clique; global port ``q`` of a group lives on its switch
    ``q // h``.
    """
    h = a // 2
    g = a * h + 1
    edges: set[tuple[int, int]] = set()
    for x in range(g):
        base = x * a
        for i in range(a):
            for j in range(i + 1, a):
                edges.add((base + i, base + j))
    for x in range(g):
        for q in range(g - 1):
            y = (x + q + 1) % g
            q_back = g - 2 - q
            u = x * a + q // h
            v = y * a + q_back // h
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def dragonfly(
    a: int, num_hosts: int | None = None, fill: str = "sequential"
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a balanced dragonfly (each switch carries at most ``p`` hosts).

    The paper's comparison instance is ``a = 8``: ``r = 15``, ``m = 264``,
    ``n_max = 1056``.  ``fill`` picks the host attachment order (see
    :func:`repro.topologies.base.attach_hosts`).
    """
    return build_graph(dragonfly_spec(a), dragonfly_switch_edges(a), num_hosts, fill)
