"""Closed-form h-ASPL prediction for clique-of-clones composed fabrics.

The composition's exact distance law (see :mod:`repro.compose.mizuno`)

``d((i, a), (j, b)) = d_B(a, b) + [i != j]``

turns the composed fabric's weighted host-distance sum into block
quantities.  With ``S_B = sum_{a,b} k_a k_b (d_B(a, b) + 2)`` (ordered,
over the block's host-bearing switches — an exact integer) and ``C``
copies of an ``n_b``-host block::

    W = C^2 * S_B + C (C - 1) * n_b^2

because every ordered cross-copy pair pays exactly one extra hop
(``sum_{a,b} k_a k_b = n_b^2`` per ordered copy pair, of which there are
``C (C - 1)``).  The h-ASPL then follows from the same correction the
measured path applies (``(0.5 W - n) / (n (n - 1) / 2)``).

**Bit-identity.**  :func:`predict_h_aspl` replicates the exact float64
operations of :func:`repro.core.metrics.h_aspl_from_distances` on the same
integer-valued quantities; every intermediate is an exact integer below
``2^53`` for any realistic fabric (``W < 2^53`` holds up to ``n`` around
``10^7`` at host diameter ~6), so prediction equals kernel measurement
bit for bit — the property suite asserts ``==``, not ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import switch_distance_matrix
from repro.utils.validation import check_positive_int

__all__ = [
    "BlockSummary",
    "summarize_block",
    "predict_weighted_sum",
    "predict_h_aspl",
    "predict_host_diameter",
]


@dataclass(frozen=True)
class BlockSummary:
    """The block metrics the composed-fabric predictor needs.

    ``weighted_sum`` is ``S_B`` above (exact integer); ``bearing_diameter``
    is the largest switch distance between two host-bearing switches of the
    block (0 when a single switch carries every host).
    """

    num_hosts: int
    num_switches: int
    radix: int
    max_ports_used: int
    weighted_sum: int
    bearing_diameter: int
    h_aspl: float


def summarize_block(block: HostSwitchGraph) -> BlockSummary:
    """Measure a block once (kernel-backed APSP over its bearing switches)."""
    n = block.num_hosts
    if n < 2:
        raise ValueError(f"block needs >= 2 hosts, got {n}")
    counts = block.host_counts()
    bearing = np.flatnonzero(counts > 0)
    dist = switch_distance_matrix(block, sources=bearing)
    dist = dist[:, bearing]
    if np.isinf(dist).any():
        raise ValueError("block switch graph is disconnected")
    k = counts[bearing].astype(np.float64)
    # Same float64 contraction as metrics._weighted_host_distance_sum: all
    # terms are integers, so the result is exact and order-independent.
    weighted = float(k @ (dist + 2.0) @ k)
    if not weighted.is_integer():
        raise ValueError(
            f"block weighted distance sum {weighted!r} is not an exact "
            "integer; the block is too large for float64-exact prediction"
        )
    aspl = float((0.5 * weighted - n) / (n * (n - 1) / 2.0))
    return BlockSummary(
        num_hosts=n,
        num_switches=block.num_switches,
        radix=block.radix,
        max_ports_used=max(
            block.ports_used(s) for s in range(block.num_switches)
        ),
        weighted_sum=int(weighted),
        bearing_diameter=int(dist.max()),
        h_aspl=aspl,
    )


def predict_weighted_sum(summary: BlockSummary, copies: int) -> int:
    """Exact weighted host-distance sum of the ``copies``-clone fabric."""
    check_positive_int(copies, "copies")
    n_b = summary.num_hosts
    return copies * copies * summary.weighted_sum + copies * (
        copies - 1
    ) * n_b * n_b


def predict_h_aspl(summary: BlockSummary, copies: int) -> float:
    """h-ASPL of the composed fabric, bit-identical to measurement.

    Replicates :func:`repro.core.metrics.h_aspl_from_distances` float64
    operations on the closed-form weighted sum; see the module docstring
    for why the two agree exactly rather than approximately.
    """
    weighted = predict_weighted_sum(summary, copies)
    n = copies * summary.num_hosts
    if weighted >= 2**53:
        raise ValueError(
            f"weighted sum {weighted} exceeds float64 integer range; "
            "prediction would no longer be exact"
        )
    return float((0.5 * float(weighted) - n) / (n * (n - 1) / 2.0))


def predict_host_diameter(summary: BlockSummary, copies: int) -> float:
    """Host-to-host diameter of the composed fabric (also exact).

    With ``C >= 2`` the farthest pair crosses copies between the block's
    most distant bearing switches: ``bearing_diameter + 1 + 2``.  A single
    copy is the block itself (``bearing_diameter + 2``, or 2 when one
    switch carries every host).
    """
    check_positive_int(copies, "copies")
    if copies >= 2:
        return float(summary.bearing_diameter + 3)
    return float(max(summary.bearing_diameter + 2, 2))
