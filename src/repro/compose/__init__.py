"""Hierarchical block composition: ORP-optimal blocks glued to 100k+ hosts.

Direct annealed ORP search tops out around a few thousand hosts; the
Mizuno-style clique-of-clones composition (arXiv:1608.08773) reaches the
``n >= 10^4 .. 10^5`` regime of the paper's end-to-end latency argument by
gluing ``C`` copies of a small search-optimised block, spending ``C - 1``
ports per switch on the clone cliques.  The composition's exact distance
law makes the fabric's h-ASPL *predictable in closed form from one block
measurement* — bit-identical to a kernel APSP, at block cost instead of
fabric cost — and blocks are memoized through the campaign store, so a
good block is searched for once and reused by every fabric built from it.

Modules
-------
- :mod:`repro.compose.mizuno` — planning arithmetic and the glue step.
- :mod:`repro.compose.predict` — closed-form h-ASPL / diameter predictor.
- :mod:`repro.compose.blocks` — campaign-store block memoization.
- :mod:`repro.compose.fabric` — :func:`build_fabric` front door and the
  serializable :class:`ComposeResult`.
"""

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.compose.fabric": ("COMPOSE_RESULT_FORMAT", "ComposeResult", "build_fabric"),
        "repro.compose.mizuno": (
            "DEFAULT_BLOCK_HOSTS",
            "ComposePlan",
            "compose_blocks",
            "plan_composition",
        ),
        "repro.compose.predict": (
            "BlockSummary",
            "predict_h_aspl",
            "predict_host_diameter",
            "predict_weighted_sum",
            "summarize_block",
        ),
        "repro.compose.blocks": ("ResolvedBlock", "resolve_block"),
    },
)
