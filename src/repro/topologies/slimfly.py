"""Slim Fly (MMS) host-switch graph — the paper's reference [2].

Besta & Hoefler's Slim Fly builds on McKay-Miller-Širáň (MMS) graphs,
which approach the degree/diameter Moore bound at diameter 2.  For a prime
``q = 4w + delta`` (``delta`` in {-1, 0, 1}) the construction is:

- switches are triples ``(i, x, y)`` with ``i`` in {0, 1} and
  ``x, y`` in GF(q) (here Z_q, since q is prime): ``2 q^2`` switches;
- let ``xi`` be a primitive root mod q; X = even powers of ``xi``,
  X' = odd powers (Besta & Hoefler Eq. for generator sets);
- intra-block edges: ``(0, x, y) ~ (0, x, y')`` iff ``y - y'`` in X, and
  ``(1, m, c) ~ (1, m, c')`` iff ``c - c'`` in X';
- cross edges: ``(0, x, y) ~ (1, m, c)`` iff ``y = m*x + c (mod q)``.

Network degree is ``(3q - delta) / 2`` and the switch-graph diameter is 2.
As in the Slim Fly paper, each switch carries roughly ``k/2`` hosts
(concentration ``p = ceil(k/2)`` by default), giving the full network
diameter 4 between hosts.

Included as an extension: the strongest published low-diameter competitor
to the paper's ORP graphs, useful as an extra baseline in examples and
benchmarks.
"""

from __future__ import annotations

import math

from repro.core.hostswitch import HostSwitchGraph
from repro.topologies.base import TopologySpec, build_graph
from repro.utils.validation import check_positive_int

__all__ = ["slim_fly", "slim_fly_spec", "slim_fly_switch_edges", "valid_slim_fly_q"]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            return False
    return True


def valid_slim_fly_q(q: int) -> bool:
    """Whether ``q`` admits this construction: prime with ``q ≡ 1 (mod 4)``.

    For such q, ``-1`` is a quadratic residue, so the even-power generator
    set X is symmetric and the intra-block relation ``y - y' ∈ X`` defines
    an undirected graph.  (MMS graphs also exist for ``q ≡ 3 (mod 4)`` and
    prime powers via a modified construction, not implemented here.)
    """
    return _is_prime(q) and q % 4 == 1


def _delta(q: int) -> int:
    if q % 4 == 1:
        return 1
    raise ValueError(f"q={q} must satisfy q ≡ 1 (mod 4) for this construction")


def _primitive_root(q: int) -> int:
    """Smallest primitive root modulo prime ``q``."""
    if q == 2:
        return 1
    phi = q - 1
    factors = set()
    x = phi
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors.add(p)
            x //= p
        p += 1
    if x > 1:
        factors.add(x)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root found for q={q}")


def slim_fly_spec(q: int, hosts_per_switch: int | None = None) -> TopologySpec:
    """Derived parameters for the Slim Fly with field size ``q``."""
    check_positive_int(q, "q")
    if not valid_slim_fly_q(q):
        raise ValueError(
            f"q={q} must be a prime with q ≡ 1 (mod 4) for this construction"
        )
    delta = _delta(q)
    degree = (3 * q - delta) // 2
    if hosts_per_switch is None:
        hosts_per_switch = (degree + 1) // 2  # Slim Fly's p = ceil(k/2)
    m = 2 * q * q
    return TopologySpec(
        name="slim-fly",
        num_switches=m,
        radix=degree + hosts_per_switch,
        max_hosts=m * hosts_per_switch,
        params={"q": q, "delta": delta, "degree": degree, "p": hosts_per_switch},
    )


def slim_fly_switch_edges(q: int) -> list[tuple[int, int]]:
    """Switch edges of the MMS graph for prime ``q``.

    Switch ``(i, x, y)`` has index ``i * q^2 + x * q + y``.
    """
    delta = _delta(q)
    xi = _primitive_root(q)
    # Generator sets: X = {xi^0, xi^2, ...}, X' = {xi^1, xi^3, ...}.
    # Sizes per Besta-Hoefler: |X| = |X'| = (q - delta) / 2 for delta=±1.
    count = (q - delta) // 2
    X = {pow(xi, 2 * i, q) for i in range(count)}
    Xp = {pow(xi, 2 * i + 1, q) for i in range(count)}

    def idx(i: int, x: int, y: int) -> int:
        return i * q * q + x * q + y

    edges: set[tuple[int, int]] = set()
    for x in range(q):
        for y in range(q):
            for yp in range(q):
                if y < yp and (y - yp) % q in X:
                    edges.add((idx(0, x, y), idx(0, x, yp)))
                if y < yp and (y - yp) % q in Xp:
                    edges.add((idx(1, x, y), idx(1, x, yp)))
    for m_ in range(q):
        for c in range(q):
            for x in range(q):
                y = (m_ * x + c) % q
                edges.add((idx(0, x, y), idx(1, m_, c)))
    return sorted(edges)


def slim_fly(
    q: int,
    num_hosts: int | None = None,
    hosts_per_switch: int | None = None,
    fill: str = "sequential",
) -> tuple[HostSwitchGraph, TopologySpec]:
    """Build a Slim Fly host-switch graph for prime ``q``."""
    spec = slim_fly_spec(q, hosts_per_switch)
    return build_graph(spec, slim_fly_switch_edges(q), num_hosts, fill)
