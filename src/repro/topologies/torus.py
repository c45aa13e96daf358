"""K-ary N-torus host-switch graph (paper Section 6.1.1).

Paper notation: ``K`` is the *dimension* and ``N`` the *base*, so switches
form an ``N x N x ... x N`` (K times) torus with ``m = N^K`` switches, each
linked to its ``2K`` neighbours (``K`` when ``N == 2``, where +1 and -1 wrap
to the same switch).  A switch can carry up to ``r - 2K`` hosts
(Formulae 3a-3c).  The paper's headline instance is the 5-D torus of
Sequoia: ``K=5, N=3, r=15`` giving ``m=243`` and ``n_max=1215``.
"""

from __future__ import annotations

from itertools import product

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["torus", "torus_spec", "torus_switch_edges"]


def torus_spec(dimension: int, base: int, radix: int) -> TopologySpec:
    """Derived parameters for a ``dimension``-D, base-``base`` torus."""
    check_positive_int(dimension, "dimension")
    check_positive_int(base, "base")
    check_positive_int(radix, "radix")
    links_per_switch = 2 * dimension if base > 2 else dimension if base == 2 else 0
    if radix <= links_per_switch:
        raise ValueError(
            f"radix r={radix} must exceed the {links_per_switch} torus links "
            f"per switch (Formula 3c)"
        )
    m = base**dimension
    return TopologySpec(
        name="torus",
        num_switches=m,
        radix=radix,
        max_hosts=(radix - links_per_switch) * m,
        params={"K": dimension, "N": base},
    )


def torus_switch_edges(dimension: int, base: int) -> list[tuple[int, int]]:
    """Switch-switch edges of the K-ary N-torus, switches in row-major order."""
    if base == 1:
        return []
    edges: set[tuple[int, int]] = set()
    strides = [base**d for d in range(dimension)]

    def index(coord: tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coord, strides))

    for coord in product(range(base), repeat=dimension):
        i = index(coord)
        for d in range(dimension):
            nxt = list(coord)
            nxt[d] = (coord[d] + 1) % base
            j = index(tuple(nxt))
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def torus(
    dimension: int,
    base: int,
    radix: int,
    num_hosts: int | None = None,
    fill: str = "sequential",
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a torus host-switch graph.

    Parameters
    ----------
    dimension, base:
        ``K`` and ``N`` of the paper.
    radix:
        Ports per switch; must exceed ``2K``.
    num_hosts:
        Hosts to attach (default: the maximum).
    fill:
        Host attachment order: ``"sequential"`` (the paper's rule) or
        ``"round-robin"`` — see :func:`repro.topologies.base.attach_hosts`.
    """
    spec = torus_spec(dimension, base, radix)
    return build_graph(spec, torus_switch_edges(dimension, base), num_hosts, fill)
