"""Mizuno-style block composition: clique-of-clones fabrics (arXiv:1608.08773).

Direct annealed search stops being practical around ``n ~ 4096`` hosts even
on the bit-packed kernels; the composition route of Mizuno, Ishida & Amano
instead *constructs* large fabrics from a small, search-optimised block.
This module implements the clique-of-clones variant:

- take ``C`` identical copies of a block host-switch graph ``B`` with
  ``m_b`` switches, and
- for every switch position ``s``, connect the ``C`` clones ``(0, s),
  (1, s), ..., (C-1, s)`` pairwise — the same-position switches form a
  ``K_C``.

Each switch spends ``C - 1`` extra ports on its clone clique, so a fabric
of radix ``r`` needs a block of radix ``r - (C - 1)``; host attachments are
replicated per copy, preserving the block's placement exactly.

**Distance law (exact).**  For hosts attached at switches ``a`` of copy
``i`` and ``b`` of copy ``j``::

    d((i, a), (j, b)) = d_B(a, b) + [i != j]

*At most* that: within one copy the block path exists unchanged, and across
copies the path ``(i, a) -> ... -> (i, b) -> (j, b)`` appends one cross
edge.  *At least* that: collapsing every copy onto ``B`` (dropping the copy
index) maps any fabric walk to a block walk in which cross edges contribute
zero length, so a fabric path needs at least ``d_B(a, b)`` block edges —
plus at least one cross edge whenever ``i != j``.  This exactness is what
makes the closed-form h-ASPL predictor in :mod:`repro.compose.predict`
bit-identical to kernel measurement rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.utils.validation import check_positive_int

__all__ = [
    "DEFAULT_BLOCK_HOSTS",
    "ComposePlan",
    "plan_composition",
    "compose_blocks",
]

#: Default per-block host target when neither ``copies`` nor
#: ``block_hosts`` is given: comfortably inside the annealer's practical
#: range while keeping the copy count (and hence the radix surcharge) low.
DEFAULT_BLOCK_HOSTS = 1024


@dataclass(frozen=True)
class ComposePlan:
    """Resolved shape of a composition: block size, copies, radix split.

    ``n`` is the *fabric* host count — the requested count rounded up to
    the nearest multiple of ``copies`` (``n = copies * block_hosts``).
    """

    n: int
    r: int
    copies: int
    block_hosts: int
    block_radix: int
    requested_n: int


def plan_composition(
    n: int,
    r: int,
    *,
    copies: int | None = None,
    block_hosts: int | None = None,
) -> ComposePlan:
    """Split a target ``(n, r)`` into ``copies`` blocks of ``block_hosts``.

    Exactly the arithmetic of the clique-of-clones port budget: with ``C``
    copies every switch spends ``C - 1`` ports on its clone clique, so the
    block is solved at radix ``r - C + 1`` (must stay >= 3).  When
    ``copies`` is omitted it is chosen as ``ceil(n / block_hosts)`` (with
    ``block_hosts`` defaulting to :data:`DEFAULT_BLOCK_HOSTS`); the block
    host count is then ``ceil(n / copies)``, so the fabric carries at least
    the requested ``n`` hosts.
    """
    check_positive_int(n, "n")
    check_positive_int(r, "r")
    if n < 2:
        raise ValueError(f"composition needs n >= 2 hosts, got {n}")
    if copies is None:
        cap = DEFAULT_BLOCK_HOSTS if block_hosts is None else block_hosts
        if cap < 2:
            raise ValueError(f"block_hosts must be >= 2, got {cap}")
        copies = max(1, math.ceil(n / cap))
    check_positive_int(copies, "copies")
    per_block = math.ceil(n / copies)
    if per_block < 2:
        raise ValueError(
            f"{copies} copies of n={n} leave < 2 hosts per block; "
            "lower copies (or solve the instance directly)"
        )
    block_radix = r - (copies - 1)
    if block_radix < 3:
        raise ValueError(
            f"radix budget exhausted: {copies} copies spend {copies - 1} "
            f"ports per switch, leaving block radix {block_radix} < 3 at "
            f"fabric radix {r}"
        )
    return ComposePlan(
        n=per_block * copies,
        r=r,
        copies=copies,
        block_hosts=per_block,
        block_radix=block_radix,
        requested_n=n,
    )


def compose_blocks(
    block: HostSwitchGraph, copies: int, *, radix: int | None = None
) -> HostSwitchGraph:
    """Glue ``copies`` clones of ``block`` into one validated fabric.

    Switch ``s`` of copy ``c`` becomes fabric switch ``c * m_b + s``; host
    ``h`` of copy ``c`` becomes fabric host ``c * n_b + h``, attached to
    the clone of its block switch — placement is preserved copy by copy.
    ``radix`` defaults to the exact budget ``block.radix + copies - 1``; a
    larger value leaves spare ports, a smaller one is rejected.

    The glue is vectorised: the block's edge and attachment arrays offset
    per copy, plus the clone cliques from ``np.triu_indices``, go to one
    :meth:`HostSwitchGraph.from_edges` call, which checks them in bulk and
    validates once.  No mutator runs, and the fabric equals the one an
    edge-by-edge build in the same order would give.
    """
    check_positive_int(copies, "copies")
    needed = block.radix + copies - 1
    if radix is None:
        radix = needed
    elif radix < needed:
        raise ValueError(
            f"fabric radix {radix} cannot carry {copies} copies of a "
            f"radix-{block.radix} block (needs >= {needed})"
        )
    m_b = block.num_switches
    # Edge order is that of a loop over copies (block edges in
    # switch_edges() order), then over positions and clone pairs i < j.
    offsets = np.arange(copies, dtype=np.int32) * m_b
    block_edges = np.array(list(block.switch_edges()), dtype=np.int32).reshape(-1, 2)
    copy_edges = (block_edges[None] + offsets[:, None, None]).reshape(-1, 2)
    i, j = np.triu_indices(copies, k=1)
    position = np.arange(m_b, dtype=np.int32)[:, None]
    clique_edges = np.stack(
        (offsets[i][None] + position, offsets[j][None] + position), axis=-1
    ).reshape(-1, 2)
    edges = np.concatenate((copy_edges, clique_edges))
    del copy_edges, clique_edges
    block_hosts = block.host_attachments().astype(np.int32)
    attachments = (offsets[:, None] + block_hosts[None]).reshape(-1)
    return HostSwitchGraph.from_edges(m_b * copies, radix, edges, attachments)
