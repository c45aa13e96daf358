"""Initial constructions of host-switch graphs (paper Sections 3.2, 5, 6.2).

Provides:

- :func:`star_host_switch_graph` — the trivial optimum when ``n <= r``.
- :func:`clique_host_switch_graph` — switches form a clique; the optimum
  whenever it fits (``r < n <= m(r-m+1)``; paper Appendix, Theorem 3).
- :func:`random_regular_host_switch_graph` — ``n/m`` hosts per switch on a
  random ``k``-regular switch graph (configuration model).  The starting
  point of the swap-only annealer (Section 5.1).
- :func:`random_host_switch_graph` — connected random graph with an
  arbitrary ``m`` and near-even host placement.  The starting point of the
  2-neighbor-swing annealer (Section 5.2).
- :func:`fill_hosts_sequentially` / :func:`fill_hosts_dfs` — the two host
  attachment orders of Section 6.2.1 used when sizing networks to exactly
  ``n`` hosts, plus :func:`fill_hosts_round_robin` and
  :func:`spread_hosts_evenly`.

Host placement is separate from graph building: each placement helper maps
per-switch free-port counts to an attachment list (host ``h`` goes to
switch ``hosts[h]``) and mutates nothing.  Builders whose edge list is
known up front (star, clique, regular) hand edges and attachments to one
:meth:`HostSwitchGraph.from_edges` call; :func:`random_host_switch_graph`
picks each edge by looking at the graph built so far, so it keeps the
mutators and attaches the list one host at a time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.utils.rng import as_generator
from repro.utils.unionfind import UnionFind
from repro.utils.validation import check_positive_int

__all__ = [
    "star_host_switch_graph",
    "clique_host_switch_graph",
    "minimum_clique_switch_count",
    "random_regular_host_switch_graph",
    "random_regular_switch_topology",
    "random_host_switch_graph",
    "fill_hosts_sequentially",
    "fill_hosts_round_robin",
    "fill_hosts_dfs",
    "spread_hosts_evenly",
]


def star_host_switch_graph(n: int, r: int) -> HostSwitchGraph:
    """All ``n`` hosts on one switch; requires ``n <= r``.  h-ASPL is 2."""
    check_positive_int(n, "n")
    check_positive_int(r, "r")
    if n > r:
        raise ValueError(f"star graph needs n <= r, got n={n}, r={r}")
    return HostSwitchGraph.from_edges(1, r, [], [0] * n)


def minimum_clique_switch_count(n: int, r: int) -> int:
    """Smallest ``m`` such that an ``m``-clique of switches hosts ``n``.

    Each switch spends ``m-1`` ports on the clique, leaving ``r-m+1`` for
    hosts, so feasibility is ``n <= m (r - m + 1)`` (and ``m - 1 <= r``).
    Raises when no clique configuration can host ``n``.
    """
    check_positive_int(n, "n")
    check_positive_int(r, "r")
    best_cap = 0
    for m in range(1, r + 2):
        cap = m * (r - m + 1)
        best_cap = max(best_cap, cap)
        if cap >= n:
            return m
    raise ValueError(
        f"no clique host-switch graph can host n={n} at radix r={r} "
        f"(max capacity {best_cap})"
    )


def clique_host_switch_graph(n: int, r: int, m: int | None = None) -> HostSwitchGraph:
    """Clique host-switch graph with hosts spread as evenly as possible.

    With ``m`` omitted the minimum feasible clique size is used, which the
    paper's Appendix (Lemma 3 / Theorem 3) shows gives the lowest h-ASPL
    among clique graphs.
    """
    if m is None:
        m = minimum_clique_switch_count(n, r)
    check_positive_int(n, "n")
    check_positive_int(m, "m")
    if m * (r - m + 1) < n:
        raise ValueError(
            f"clique of m={m} switches at radix r={r} can host at most "
            f"{m * (r - m + 1)} hosts, asked for {n}"
        )
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return HostSwitchGraph.from_edges(m, r, edges, spread_hosts_evenly([r - m + 1] * m, n))


def random_regular_switch_topology(
    m: int, k: int, seed: int | np.random.Generator | None = 0, max_tries: int = 20
) -> list[tuple[int, int]]:
    """Random connected simple ``k``-regular graph on ``m`` vertices.

    Construction: a circulant base graph (ring chords at offsets 1..k/2,
    plus the antipodal chord for odd ``k``) randomised by ``~10 m k``
    degree-preserving double-edge swaps.  Unlike the configuration model
    this never rejects for dense ``k`` (the swap walk preserves simplicity
    by construction); connectivity is checked after mixing and the walk
    continues if a swap sequence happened to disconnect the graph.
    """
    check_positive_int(m, "m")
    check_positive_int(k, "k")
    if k >= m:
        raise ValueError(f"degree k={k} must be < m={m}")
    if (m * k) % 2 != 0:
        raise ValueError(f"m*k must be even for a k-regular graph, got m={m}, k={k}")
    rng = as_generator(seed)

    # Circulant base: offsets 1..k//2; odd k needs the antipodal chord
    # (m even, guaranteed by the parity check above).
    adj: list[set[int]] = [set() for _ in range(m)]
    for off in range(1, k // 2 + 1):
        for v in range(m):
            w = (v + off) % m
            adj[v].add(w)
            adj[w].add(v)
    if k % 2 == 1:
        half = m // 2
        for v in range(half):
            adj[v].add(v + half)
            adj[v + half].add(v)
    if any(len(a) != k for a in adj):
        # Happens when offsets collide (e.g. k ~ m-1 with wraparound).
        raise ValueError(f"circulant base infeasible for m={m}, k={k}")

    edges = [(a, b) for a in range(m) for b in adj[a] if a < b]

    def do_swaps(count: int) -> None:
        for _ in range(count):
            i, j = rng.integers(0, len(edges), size=2)
            if i == j:
                continue
            a, b = edges[int(i)]
            c, d = edges[int(j)]
            if rng.integers(0, 2):
                c, d = d, c
            if len({a, b, c, d}) != 4:
                continue
            if d in adj[a] or c in adj[b]:
                continue
            adj[a].discard(b)
            adj[b].discard(a)
            adj[c].discard(d)
            adj[d].discard(c)
            adj[a].add(d)
            adj[d].add(a)
            adj[b].add(c)
            adj[c].add(b)
            edges[int(i)] = (a, d)
            edges[int(j)] = (b, c)

    def connected() -> bool:
        seen = [False] * m
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == m

    do_swaps(10 * m * k)
    for _ in range(max_tries):
        if connected():
            return sorted(tuple(sorted(e)) for e in edges)
        do_swaps(2 * m * k)
    raise RuntimeError(
        f"failed to reach a connected {k}-regular graph on {m} vertices "
        f"after {max_tries} swap rounds"
    )


def random_regular_host_switch_graph(
    n: int, m: int, r: int, seed: int | np.random.Generator | None = 0
) -> HostSwitchGraph:
    """Regular host-switch graph: ``n/m`` hosts per switch, random k-regular core.

    The switch degree is ``k = r - n/m`` (every port used).  Requires
    ``m | n`` and a feasible ``k`` (``1 <= k <= m-1``, ``m*k`` even).
    """
    check_positive_int(n, "n")
    check_positive_int(m, "m")
    if n % m != 0:
        raise ValueError(f"regular host-switch graph needs m | n (n={n}, m={m})")
    hosts_per_switch = n // m
    k = r - hosts_per_switch
    if k < 1:
        raise ValueError(
            f"no switch ports left: r={r} but {hosts_per_switch} hosts per switch"
        )
    if m == 1:
        raise ValueError("regular host-switch graph needs m >= 2")
    edges = random_regular_switch_topology(m, k, seed=seed)
    return HostSwitchGraph.from_edges(
        m, r, edges, np.repeat(np.arange(m), hosts_per_switch)
    )


def random_host_switch_graph(
    n: int,
    m: int,
    r: int,
    seed: int | np.random.Generator | None = 0,
    fill_edges: bool = True,
) -> HostSwitchGraph:
    """Connected random host-switch graph for arbitrary ``(n, m, r)``.

    Construction: random spanning tree over the switches (uniform random
    attachment order), hosts spread as evenly as free ports allow, then —
    when ``fill_edges`` — extra random switch-switch edges are added until
    port capacity is (nearly) exhausted.  This is the 2-neighbor-swing
    annealer's starting point; it intentionally has slack for non-regular
    optimisation.
    """
    check_positive_int(n, "n")
    check_positive_int(m, "m")
    check_positive_int(r, "r")
    rng = as_generator(seed)
    g = HostSwitchGraph(num_switches=m, radix=r)

    if m > 1:
        # Random spanning tree: attach each new switch to a uniformly random
        # switch already in the tree that still has ports.
        # ``candidates`` is the tree's switches with a free port, in the
        # order they joined; only the new switch and its parent change.
        order = rng.permutation(m).tolist()
        candidates = [order[0]]
        for idx in order[1:]:
            if not candidates:
                raise ValueError(
                    f"cannot build a spanning tree: radix r={r} too small for m={m}"
                )
            pos = int(rng.integers(0, len(candidates)))
            parent = candidates[pos]
            g.add_switch_edge(idx, parent)
            if g.free_ports(parent) < 1:
                del candidates[pos]
            if g.free_ports(idx) >= 1:
                candidates.append(idx)

    total_ports = m * r
    tree_ports = 2 * (m - 1)
    if total_ports - tree_ports < n:
        raise ValueError(
            f"infeasible: m={m} switches at radix r={r} have "
            f"{total_ports - tree_ports} free ports after a spanning tree, "
            f"need {n} for hosts"
        )
    free = [g.free_ports(s) for s in range(m)]
    for s in spread_hosts_evenly(free, n):
        g.attach_host(s)

    if fill_edges and m > 1:
        _add_random_edges(g, rng)
    g.validate()
    return g


def _add_random_edges(g: HostSwitchGraph, rng: np.random.Generator) -> None:
    """Greedily add random legal switch edges until ports are ~saturated.

    ``free`` is the sorted list of switches with a free port; a switch
    leaves it when an added edge fills it.
    """
    m = g.num_switches
    free = [s for s in range(m) if g.free_ports(s) >= 1]
    misses = 0
    max_misses = 20 * m
    while misses < max_misses and len(free) >= 2:
        i, j = (int(x) for x in rng.choice(len(free), size=2, replace=False))
        a, b = free[i], free[j]
        if g.has_switch_edge(a, b):
            misses += 1
            continue
        g.add_switch_edge(a, b)
        misses = 0
        for pos in sorted((i, j), reverse=True):
            if g.free_ports(free[pos]) < 1:
                del free[pos]


def _ports(free: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every free port as ``(switch, rank, free[switch])``, switch by switch.

    Switch ``s``'s ports are ranked ``0 .. free[s] - 1``.
    """
    free_arr = np.asarray(free, dtype=np.int64)
    switches = np.repeat(np.arange(free_arr.size), free_arr)
    rank = np.arange(switches.size) - np.repeat(np.cumsum(free_arr) - free_arr, free_arr)
    return switches, rank, free_arr[switches]


def _first(ports: np.ndarray, n: int) -> list[int]:
    """The switches of the first ``n`` ports, one host each."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > ports.size:
        raise ValueError(f"not enough free ports to attach {n} hosts ({ports.size} free)")
    return ports[:n].tolist()


def fill_hosts_sequentially(free: Sequence[int], n: int) -> list[int]:
    """Attach ``n`` hosts scanning switches in index order (Section 6.2.1).

    ``free[s]`` is switch ``s``'s free-port count; the result lists the
    switch of each host.  Each switch is filled to capacity before moving
    on — the paper's host attachment rule for the *conventional*
    topologies.
    """
    return _first(np.repeat(np.arange(len(free)), free), n)


def fill_hosts_round_robin(free: Sequence[int], n: int) -> list[int]:
    """Attach ``n`` hosts one per switch with a free port per sweep."""
    switches, rank, _ = _ports(free)
    return _first(switches[np.argsort(rank, kind="stable")], n)


def spread_hosts_evenly(free: Sequence[int], n: int) -> list[int]:
    """Attach ``n`` hosts, each to the switch with the most free ports left.

    Ties go to the lowest index, which yields an even spread whenever
    capacities allow.  Switch ``s``'s port of rank ``k`` is taken with
    ``free[s] - k`` ports left, so the picks are the ports in order of
    that count, descending, then of switch id.
    """
    switches, rank, free_at = _ports(free)
    return _first(switches[np.argsort(rank - free_at, kind="stable")], n)


def fill_hosts_dfs(graph: HostSwitchGraph, n: int, root: int = 0) -> list[int]:
    """Attach ``n`` hosts in depth-first switch order (Section 6.2.1).

    The paper attaches the proposed topology's hosts "in depth-first order
    by using backtracking": switches are visited by DFS over the switch
    graph so consecutively numbered hosts land on nearby switches, which
    improves locality for neighbour-structured MPI ranks.  Fills the free
    ports of the switches reachable from ``root``; ``graph`` is not
    changed.
    """
    m = graph.num_switches
    seen = [False] * m
    order: list[int] = []
    stack = [root]
    while stack:
        s = stack.pop()
        if seen[s]:
            continue
        seen[s] = True
        order.append(s)
        for b in sorted(graph.neighbors(s), reverse=True):
            if not seen[b]:
                stack.append(b)
    free = [graph.free_ports(s) for s in order]
    return _first(np.repeat(np.array(order, dtype=np.int64), free), n)
