"""Random-shortcut ring host-switch graph — the paper's reference [10].

Koibuchi et al. (ISCA'12) showed that adding random shortcut links to a
simple base topology (a ring) slashes diameter and ASPL — the empirical
observation that motivated the local-search line of work the paper
extends.  Construction here: an ``m``-switch ring plus ``s`` independent
random perfect matchings over the switches (the "cycle plus random
matching" model of the paper's reference [6]), hosts filling the remaining
ports.
"""

from __future__ import annotations

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, attach_hosts
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["random_shortcut_ring", "random_shortcut_spec"]


def random_shortcut_spec(
    num_switches: int, radix: int, num_matchings: int
) -> TopologySpec:
    """Derived parameters for a ring plus ``num_matchings`` matchings."""
    check_positive_int(num_switches, "num_switches")
    check_positive_int(radix, "radix")
    if num_matchings < 0:
        raise ValueError("num_matchings must be >= 0")
    if num_switches % 2 != 0 and num_matchings > 0:
        raise ValueError("perfect matchings need an even number of switches")
    degree = 2 + num_matchings
    if degree >= radix:
        raise ValueError(
            f"ring (2) plus {num_matchings} matchings exceeds radix r={radix}"
        )
    m = num_switches
    return TopologySpec(
        name="random-shortcut-ring",
        num_switches=m,
        radix=radix,
        max_hosts=m * (radix - degree),
        params={"matchings": num_matchings, "degree": degree},
    )


def random_shortcut_ring(
    num_switches: int,
    radix: int,
    num_matchings: int = 1,
    num_hosts: int | None = None,
    seed: int | np.random.Generator | None = None,
    fill: str = "sequential",
    max_tries: int = 100,
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a ring-plus-random-matchings host-switch graph.

    Each matching is resampled until it adds no duplicate/self edges
    (possible while ports remain; raises after ``max_tries``).
    """
    spec = random_shortcut_spec(num_switches, radix, num_matchings)
    if num_hosts is None:
        num_hosts = spec.max_hosts
    if num_hosts > spec.max_hosts:
        raise ValueError(
            f"ring({num_switches}) with {num_matchings} matchings hosts at "
            f"most {spec.max_hosts}, asked {num_hosts}"
        )
    rng = as_generator(seed)
    m = num_switches
    g = HostSwitchGraph(num_switches=m, radix=radix)
    for s in range(m):
        if m > 1 and not g.has_switch_edge(s, (s + 1) % m):
            g.add_switch_edge(s, (s + 1) % m)

    for _ in range(num_matchings):
        for a, b in _sample_matching(g, rng, max_tries):
            g.add_switch_edge(a, b)

    free = [g.free_ports(s) for s in range(m)]
    for s in attach_hosts(free, num_hosts, fill):
        g.attach_host(s)
    g.validate()
    return g, spec


def _sample_matching(
    g: HostSwitchGraph, rng: np.random.Generator, max_tries: int
) -> list[tuple[int, int]]:
    """Sample a perfect matching adding no duplicate/self edges to ``g``.

    Takes the caller's :class:`numpy.random.Generator` explicitly so the
    draw order (and thus the topology) is fully determined by the seed.
    """
    m = g.num_switches
    for _ in range(max_tries):
        perm = rng.permutation(m)
        pairs = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(m // 2)]
        if all(a != b and not g.has_switch_edge(a, b) for a, b in pairs):
            return pairs
    raise RuntimeError(
        f"failed to sample a conflict-free matching after {max_tries} tries"
    )
