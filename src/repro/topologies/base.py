"""Common metadata, host placement and graph building for topology builders.

Every family here (torus, mesh, hypercube, dragonfly, Slim Fly, fat-tree)
computes its switch edge list and hands it to :func:`build_graph`, which
defaults and limits the host count, places the hosts on the free ports
(:func:`attach_hosts`) and makes one :meth:`HostSwitchGraph.from_edges`
call, so the graph is checked once, by its one ``validate()``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.construct import fill_hosts_round_robin, fill_hosts_sequentially
from repro.core.hostswitch import HostSwitchGraph

__all__ = ["TopologySpec", "attach_hosts", "build_graph"]

_FILLS = {"sequential": fill_hosts_sequentially, "round-robin": fill_hosts_round_robin}


def attach_hosts(free: Sequence[int], n: int, strategy: str = "sequential") -> list[int]:
    """The switch of each of ``n`` hosts placed on the free ports ``free``.

    ``"sequential"`` (the paper's rule, Section 6.2.1: "we sequentially
    connect hosts to switches until n ...") fills each switch to capacity
    before moving to the next, so consecutive host ids — and hence
    consecutive MPI ranks under the linear mapping — share switches.
    ``"round-robin"`` lays one host per switch per sweep, spreading load.
    """
    if strategy not in _FILLS:
        raise ValueError(f"unknown host fill strategy {strategy!r}")
    return _FILLS[strategy](free, n)


def build_graph(
    spec: TopologySpec,
    edges: Sequence[tuple[int, int]],
    num_hosts: int | None = None,
    fill: str = "sequential",
) -> tuple[HostSwitchGraph, TopologySpec]:
    """The ``spec`` instance with switch ``edges`` and ``num_hosts`` hosts.

    ``num_hosts`` defaults to ``spec.max_hosts`` and may not exceed it;
    ``fill`` picks the host placement (:func:`attach_hosts`).
    """
    if num_hosts is None:
        num_hosts = spec.max_hosts
    if num_hosts > spec.max_hosts:
        params = ", ".join(f"{k}={v}" for k, v in spec.params.items())
        raise ValueError(
            f"{spec.name}({params}) at r={spec.radix} hosts at most "
            f"{spec.max_hosts}, asked for {num_hosts}"
        )
    m = spec.num_switches
    edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    free = (spec.radix - np.bincount(edge_array.ravel(), minlength=m)).tolist()
    hosts = attach_hosts(free, num_hosts, fill)
    return HostSwitchGraph.from_edges(m, spec.radix, edge_array, hosts), spec


@dataclass(frozen=True)
class TopologySpec:
    """Derived parameters of a concrete topology instance.

    Attributes
    ----------
    name:
        Topology family (``"torus"``, ``"dragonfly"``, ...).
    num_switches:
        ``m``: switches in the instance.
    radix:
        ``r``: ports per switch required by the construction.
    max_hosts:
        ``n_max``: hosts the instance can carry (paper's "connectable
        hosts").
    params:
        The family-specific parameters (e.g. ``{"K": 5, "N": 3}``).
    """

    name: str
    num_switches: int
    radix: int
    max_hosts: int
    params: dict = field(default_factory=dict)

    def __str__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"{self.name}({ps}): m={self.num_switches}, r={self.radix}, "
            f"n_max={self.max_hosts}"
        )
