"""K-dimensional mesh host-switch graph (torus without wraparound links).

Included as the non-wrapped sibling of :mod:`repro.topologies.torus`; the
corner/edge switches have spare ports, making it a useful non-regular test
subject.
"""

from __future__ import annotations

from itertools import product

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["mesh", "mesh_spec", "mesh_switch_edges"]


def mesh_spec(dimension: int, base: int, radix: int) -> TopologySpec:
    """Derived parameters for the ``dimension``-D, base-``base`` mesh."""
    check_positive_int(dimension, "dimension")
    check_positive_int(base, "base")
    check_positive_int(radix, "radix")
    max_links = 2 * dimension
    if radix <= max_links and base > 1:
        raise ValueError(
            f"radix r={radix} must exceed {max_links} (interior mesh degree)"
        )
    m = base**dimension
    # Capacity: total ports minus 2x internal edges.
    num_edges = dimension * (base - 1) * base ** (dimension - 1)
    return TopologySpec(
        name="mesh",
        num_switches=m,
        radix=radix,
        max_hosts=m * radix - 2 * num_edges,
        params={"K": dimension, "N": base},
    )


def mesh_switch_edges(dimension: int, base: int) -> list[tuple[int, int]]:
    """Nearest-neighbour edges without wraparound, row-major switch order."""
    strides = [base**d for d in range(dimension)]

    def index(coord: tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coord, strides))

    edges = []
    for coord in product(range(base), repeat=dimension):
        i = index(coord)
        for d in range(dimension):
            if coord[d] + 1 < base:
                nxt = list(coord)
                nxt[d] += 1
                edges.append((i, index(tuple(nxt))))
    return sorted(edges)


def mesh(
    dimension: int, base: int, radix: int, num_hosts: int | None = None,
    fill: str = "sequential",
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a mesh host-switch graph."""
    spec = mesh_spec(dimension, base, radix)
    return build_graph(spec, mesh_switch_edges(dimension, base), num_hosts, fill)
