"""Binary hypercube host-switch graph (classic 1970s-80s topology).

Not one of the paper's comparators but included as an extra baseline of the
same vintage (Cosmic Cube era): ``m = 2^d`` switches, switch ``i`` links to
``i XOR (1 << b)`` for each bit ``b``, hosts fill the remaining
``r - d`` ports per switch.
"""

from __future__ import annotations

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["hypercube", "hypercube_spec", "hypercube_switch_edges"]


def hypercube_spec(dim: int, radix: int) -> TopologySpec:
    """Derived parameters for the ``dim``-dimensional hypercube."""
    check_positive_int(dim, "dim")
    check_positive_int(radix, "radix")
    if radix <= dim:
        raise ValueError(f"radix r={radix} must exceed dimension d={dim}")
    m = 1 << dim
    return TopologySpec(
        name="hypercube",
        num_switches=m,
        radix=radix,
        max_hosts=(radix - dim) * m,
        params={"d": dim},
    )


def hypercube_switch_edges(dim: int) -> list[tuple[int, int]]:
    """Edges ``(i, i ^ 2^b)`` for every switch ``i`` and bit ``b``."""
    m = 1 << dim
    edges = []
    for i in range(m):
        for b in range(dim):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    return edges


def hypercube(
    dim: int, radix: int, num_hosts: int | None = None, fill: str = "sequential"
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a hypercube host-switch graph."""
    spec = hypercube_spec(dim, radix)
    return build_graph(spec, hypercube_switch_edges(dim), num_hosts, fill)
