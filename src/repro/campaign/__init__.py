"""Durable, resumable experiment campaigns over ORP sweeps.

The orchestration layer for reproducing the paper's evaluation at scale:

- :mod:`repro.campaign.spec` — declarative JSON sweep specs expanded into
  normalized points, each content-addressed by a canonical SHA-256 digest,
  and :func:`~repro.campaign.spec.solve_point`, the one point-to-solver
  mapping;
- :mod:`repro.campaign.store` — the content-addressed artifact store (the
  package's *only* file-write path, enforced by repro-lint REP008);
- :mod:`repro.campaign.index` — the append-only leaderboard index (best
  h-ASPL per ``(n, r)``) that makes the store a concurrent-reader serving
  backend for :mod:`repro.serve` and compose memoization;
- :mod:`repro.campaign.checkpoint` — per-point annealer checkpointing so a
  killed campaign resumes bit-identically;
- :mod:`repro.campaign.executor` — worker-pool execution with retries,
  checkpoint-boundary timeouts, crash isolation, and graceful SIGINT drain;
- :mod:`repro.campaign.report` — status/report views over the store.

CLI: ``repro campaign run|resume|status|report SPEC.json``.
"""

from repro.campaign.checkpoint import (
    CampaignInterrupted,
    PointCheckpointer,
    PointTimeout,
)
from repro.campaign.executor import CampaignRunResult, PointOutcome, run_campaign
from repro.campaign.report import campaign_status, format_report, format_status
from repro.campaign.spec import (
    CAMPAIGN_SPEC_FORMAT,
    CampaignSpec,
    ExecutorConfig,
    SpecError,
    canonical_json,
    expand_grid,
    load_spec,
    normalize_point,
    point_digest,
    solve_point,
)
from repro.campaign.index import IndexEntry, IndexRebuildStats, best_by_nr
from repro.campaign.store import BestPoint, CampaignStore, ScanBest, StoreError

__all__ = [
    "CAMPAIGN_SPEC_FORMAT",
    "BestPoint",
    "CampaignInterrupted",
    "CampaignRunResult",
    "CampaignSpec",
    "CampaignStore",
    "ExecutorConfig",
    "IndexEntry",
    "IndexRebuildStats",
    "PointCheckpointer",
    "PointOutcome",
    "PointTimeout",
    "ScanBest",
    "SpecError",
    "StoreError",
    "best_by_nr",
    "campaign_status",
    "canonical_json",
    "expand_grid",
    "format_report",
    "format_status",
    "load_spec",
    "normalize_point",
    "point_digest",
    "run_campaign",
    "solve_point",
]
