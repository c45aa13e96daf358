"""Distance metrics on host-switch graphs (paper Section 3.2).

The central quantity is the **host-to-host average shortest path length**
(h-ASPL).  Because every host has exactly one edge, the distance between two
hosts attached to switches ``a`` and ``b`` is ``d(a, b) + 2`` where ``d`` is
the switch-graph distance (and ``d(a, a) = 0`` gives the same-switch host
distance of 2).  Hence the h-ASPL depends only on the switch-graph distance
matrix and the per-switch host counts ``k``:

.. math::

    A(G) = \\frac{\\sum_{a<b} k_a k_b (d(a,b)+2) + 2\\sum_a \\binom{k_a}{2}}
                {\\binom{n}{2}}
         = \\frac{\\tfrac12 \\sum_{a,b} k_a k_b (d(a,b)+2) - n}{\\binom{n}{2}}.

We compute ``d`` with the bit-parallel BFS kernel of
:mod:`repro.core.kernels` restricted to host-bearing switches, and
evaluate the double sum with vectorised NumPy.  This used to be the hot
path of the annealing search; the annealer now repairs a persistent
distance matrix per move with
:class:`repro.core.incremental.IncrementalEvaluator`.  Because every
quantity in the weighted sum is an integer exactly representable in
float64, that evaluator and this module produce bit-identical h-ASPL
values (see :func:`_weighted_host_distance_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import KERNEL, CSRAdjacency
from repro.utils.contracts import ensures, requires

__all__ = [
    "switch_distance_matrix",
    "switch_aspl",
    "h_aspl",
    "diameter",
    "h_aspl_and_diameter",
    "host_distance_matrix",
    "single_source_host_distances",
    "h_aspl_from_distances",
    "h_aspl_sampled",
    "DegradedMetrics",
    "degraded_metrics",
    "degraded_metrics_from_distances",
]


def switch_distance_matrix(
    graph: HostSwitchGraph, sources: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs (or selected-source) switch-graph distances.

    Parameters
    ----------
    graph:
        The host-switch graph.
    sources:
        Optional array of switch indices to use as BFS sources.  When given,
        the returned matrix has shape ``(len(sources), m)``; otherwise
        ``(m, m)``.  Unreachable pairs are ``numpy.inf``.
    """
    if sources is not None and len(sources) == 0:
        return np.zeros((0, graph.num_switches))
    if sources is None:
        sources = np.arange(graph.num_switches)
    csr = CSRAdjacency.from_graph(graph)
    return np.atleast_2d(KERNEL.bfs_distances(csr, sources))


def switch_aspl(graph: HostSwitchGraph) -> float:
    """Plain average shortest path length of the switch-switch graph ``G'``.

    Used by Formula (1) of the paper, which relates the h-ASPL of a regular
    host-switch graph to the ASPL of its underlying switch graph.
    """
    m = graph.num_switches
    if m < 2:
        return 0.0
    dist = switch_distance_matrix(graph)
    if np.isinf(dist).any():
        return float("inf")
    return float(dist.sum() / (m * (m - 1)))


def _host_weighted_sums(
    graph: HostSwitchGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances restricted to host-bearing switches plus their host counts.

    Returns ``(dist, k, bearing)`` where ``dist`` is the pairwise distance
    matrix among host-bearing switches, ``k`` their host counts, and
    ``bearing`` their switch indices.
    """
    counts = graph.host_counts()
    bearing = np.flatnonzero(counts > 0)
    dist = switch_distance_matrix(graph, sources=bearing)[:, bearing]
    return dist, counts[bearing].astype(np.float64), bearing


def h_aspl(graph: HostSwitchGraph) -> float:
    """Host-to-host average shortest path length ``A(G)``.

    Returns ``inf`` when some pair of hosts is disconnected.  Raises
    ``ValueError`` for graphs with fewer than two hosts (the average over
    zero pairs is undefined).
    """
    return h_aspl_and_diameter(graph)[0]


def diameter(graph: HostSwitchGraph) -> float:
    """Host-to-host diameter ``D(G)`` (max over host pairs)."""
    return h_aspl_and_diameter(graph)[1]


@ensures(
    lambda result: result[0] >= 2.0 - 1e-9 and result[1] >= result[0] - 1e-9,
    "h-ASPL >= 2 and diameter >= h-ASPL (paper Section 2)",
)
def h_aspl_and_diameter(graph: HostSwitchGraph) -> tuple[float, float]:
    """Compute ``(A(G), D(G))`` with a single APSP pass.

    Cheaper than calling :func:`h_aspl` and :func:`diameter` separately when
    both are needed (as the annealers and reports do).
    """
    n = graph.num_hosts
    if n < 2:
        raise ValueError(f"h-ASPL needs at least 2 hosts, graph has {n}")
    dist, k, _ = _host_weighted_sums(graph)
    if np.isinf(dist).any():
        return float("inf"), float("inf")
    # 0.5 * sum_{a,b} k_a k_b (d+2) counts same-switch "pairs" as k_a^2 at
    # distance 2; subtracting n corrects them down to 2*C(k_a, 2).
    weighted = k @ (dist + 2.0) @ k
    total = 0.5 * weighted - n
    pairs = n * (n - 1) / 2.0
    aspl = float(total / pairs)

    # Diameter: off-diagonal host pairs sit at d+2; same-switch pairs at 2.
    if len(k) == 1:
        diam = 2.0
    else:
        off = dist + 2.0
        np.fill_diagonal(off, 0.0)
        diam = float(off.max())
        if diam < 2.0 and (k >= 2).any():
            diam = 2.0
    return aspl, diam


def _weighted_host_distance_sum(dist: np.ndarray, k: np.ndarray) -> float:
    """``sum_{a,b} k_a k_b (d(a,b) + 2)`` — the h-ASPL numerator's core.

    Shared by :func:`h_aspl_from_distances` and the incremental evaluator so
    both compute the sum with the *same* floating-point operations: all
    terms are integers, so the float64 result is exact and independent of
    summation order, which is what makes the two evaluators bit-identical.
    """
    return float(k @ (dist + 2.0) @ k)


def h_aspl_from_distances(dist: np.ndarray, k: np.ndarray, n: int) -> float:
    """h-ASPL from a precomputed host-bearing distance matrix.

    Exposed so callers that already hold ``dist`` (e.g. the incremental
    evaluator's repaired matrix) can recompute the average without another
    APSP.
    """
    if np.isinf(dist).any():
        return float("inf")
    k = np.asarray(k, dtype=np.float64)
    weighted = _weighted_host_distance_sum(dist, k)
    return float((0.5 * weighted - n) / (n * (n - 1) / 2.0))


@requires(
    lambda graph, sources: len(np.atleast_1d(sources)) > 0,
    "need at least one sampled source switch",
)
def h_aspl_sampled(
    graph: HostSwitchGraph,
    sources: np.ndarray,
) -> float:
    """Estimate the h-ASPL from a subset of source switches.

    ``sources`` must index host-bearing switches.  The estimator averages
    host distances from the sampled sources' hosts to *all* hosts — an
    unbiased estimate when sources are drawn with probability proportional
    to their host counts, and a deterministic, cheap surrogate objective
    for annealing at large ``n`` (see ``anneal(..., eval_sources=...)``).

    Cost: ``len(sources)`` BFS passes instead of one per host-bearing
    switch.  Returns ``inf`` if any sampled pair is disconnected.
    """
    counts = graph.host_counts().astype(np.float64)
    sources = np.asarray(sources, dtype=np.int64)
    if (counts[sources] == 0).any():
        raise ValueError("sampled sources must carry at least one host")
    dist = switch_distance_matrix(graph, sources=sources)
    if np.isinf(dist).any():
        return float("inf")
    k_src = counts[sources]
    # Mean distance from a sampled source host to every *other* host:
    # sum_b k_b (d(s,b)+2) minus the self term (own distance 0 + 2 counted
    # once for the host itself).
    n = graph.num_hosts
    weighted = (dist + 2.0) @ counts  # per-source sums over all hosts
    per_source = (weighted - 2.0) / (n - 1)  # exclude the source host itself
    return float(np.average(per_source, weights=k_src))


@dataclass(frozen=True)
class DegradedMetrics:
    """Reachability-aware metrics for a (possibly partitioned) fabric.

    On a connected fabric ``connected_h_aspl`` equals :func:`h_aspl`
    bit-for-bit and ``reachable_pair_fraction`` is exactly 1.0, so consumers
    can use these fields unconditionally.  On a partitioned fabric every
    field stays finite except ``connected_h_aspl``, which is ``inf`` only in
    the degenerate case of *zero* reachable host pairs.
    """

    #: Mean host-to-host distance over *reachable* pairs only (``inf`` when
    #: no pair is reachable).  Same-switch pairs count at distance 2.
    connected_h_aspl: float
    #: Reachable unordered host pairs divided by ``C(n, 2)``.
    reachable_pair_fraction: float
    #: Number of switch-graph components carrying at least one host.
    num_components: int
    #: Host population of each such component, descending.
    component_hosts: tuple[int, ...]
    #: Total hosts considered (``n``).
    num_hosts: int

    @property
    def largest_component_hosts(self) -> int:
        return self.component_hosts[0] if self.component_hosts else 0

    @property
    def is_partitioned(self) -> bool:
        return self.num_components > 1


def degraded_metrics(graph: HostSwitchGraph) -> DegradedMetrics:
    """Degraded-operation metrics of ``graph`` (one APSP pass).

    Unlike :func:`h_aspl` this never collapses to a single ``inf`` on a
    disconnected fabric: the average is taken over reachable host pairs and
    the lost connectivity is reported separately as the reachable-pair
    fraction and per-component host counts.
    """
    n = graph.num_hosts
    if n < 2:
        raise ValueError(f"degraded metrics need at least 2 hosts, graph has {n}")
    dist, k, _ = _host_weighted_sums(graph)
    return degraded_metrics_from_distances(dist, k, n)


def degraded_metrics_from_distances(
    dist: np.ndarray, k: np.ndarray, n: int
) -> DegradedMetrics:
    """:class:`DegradedMetrics` from a precomputed host-bearing distance matrix.

    ``dist`` is the pairwise switch-distance matrix restricted to
    host-bearing switches (``inf`` for unreachable pairs) and ``k`` their
    host counts — the same inputs as :func:`h_aspl_from_distances`, so
    callers holding an incrementally repaired matrix (resilience sweeps,
    degraded routing) get degraded metrics without another APSP.
    """
    if n < 2:
        raise ValueError(f"degraded metrics need at least 2 hosts, got n={n}")
    k = np.asarray(k, dtype=np.float64)
    finite = np.isfinite(dist)
    total_pairs = n * (n - 1) / 2.0
    if finite.all():
        # Connected fast path: identical float ops to h_aspl_from_distances,
        # hence bit-identical values (integer terms are exact in float64).
        weighted = _weighted_host_distance_sum(dist, k)
        aspl = float((0.5 * weighted - n) / total_pairs)
        return DegradedMetrics(
            connected_h_aspl=aspl,
            reachable_pair_fraction=1.0 if len(k) else 0.0,
            num_components=1 if len(k) else 0,
            component_hosts=(int(k.sum()),) if len(k) else (),
            num_hosts=n,
        )
    # Masked double sum: unreachable entries contribute 0; the reachable
    # ordered-pair weight includes the n same-host self terms, corrected the
    # same way as in h_aspl (0.5 * weighted - n over (ordered - n) / 2).
    masked = np.where(finite, dist + 2.0, 0.0)
    weighted = float(k @ masked @ k)
    reach_ordered = float(k @ finite.astype(np.float64) @ k)
    reachable_pairs = 0.5 * (reach_ordered - n)
    if reachable_pairs > 0:
        aspl = float((0.5 * weighted - n) / reachable_pairs)
    else:
        aspl = float("inf")
    # Component representative per row: index of the first reachable switch
    # (the diagonal is always finite, so every row has one).
    reps, inverse = np.unique(np.argmax(finite, axis=1), return_inverse=True)
    hosts_per = np.zeros(len(reps))
    np.add.at(hosts_per, inverse, k)
    component_hosts = tuple(sorted((int(h) for h in hosts_per), reverse=True))
    return DegradedMetrics(
        connected_h_aspl=aspl,
        reachable_pair_fraction=float(reachable_pairs / total_pairs),
        num_components=len(reps),
        component_hosts=component_hosts,
        num_hosts=n,
    )


def host_distance_matrix(graph: HostSwitchGraph) -> np.ndarray:
    """Full ``n x n`` matrix of host-to-host distances.

    Mostly for analysis and tests; the h-ASPL itself never materialises this
    matrix.  Diagonal entries are 0.
    """
    attachment = graph.host_attachments()
    sw_dist = switch_distance_matrix(graph)
    d = sw_dist[np.ix_(attachment, attachment)] + 2.0
    np.fill_diagonal(d, 0.0)
    return d


def single_source_host_distances(graph: HostSwitchGraph, host: int) -> np.ndarray:
    """Distances from one host to every host (length ``n``, self = 0)."""
    src_switch = graph.host_attachment(host)
    sw_dist = switch_distance_matrix(graph, sources=np.asarray([src_switch]))[0]
    d = sw_dist[graph.host_attachments()] + 2.0
    d[host] = 0.0
    return d
