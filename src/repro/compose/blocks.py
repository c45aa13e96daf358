"""Block resolution: campaign-store memoization around ``solve_point``.

A composed fabric's quality is entirely the block's, so blocks are worth
searching hard for — once.  :func:`resolve_block` keys the block's solver
parameters through the campaign spec machinery (the same normalization and
SHA-256 content digest ``repro campaign`` uses), so:

- a block solved by any previous compose run — or by any ORP campaign that
  happened to sweep the same point — is a cache hit by digest;
- failing an exact hit, :meth:`CampaignStore.best_for` serves the best
  *known* result at the block's ``(n, r)`` regardless of which schedule
  produced it (disable with ``use_best=False`` for strict digest
  reproducibility);
- a miss solves via :func:`repro.campaign.spec.solve_point` (the campaign
  executor's own solve) and stores the result as a plain ORP point,
  immediately reusable by campaigns.

``best_for`` answers from the store's append-only leaderboard index
(:mod:`repro.campaign.index`), not a point-directory scan, so resolving a
block against a store with thousands of memoized points costs one small
file read — which is what lets :mod:`repro.serve` route live queries
through this exact path.  A corrupt exact-hit artifact falls through to
the best-known/solve path instead of failing the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.campaign.spec import (
    SOLVER_FIELDS,
    SpecError,
    normalize_point,
    point_digest,
    solve_point,
)
from repro.campaign.store import CampaignStore, StoreError
from repro.core.hostswitch import HostSwitchGraph
from repro.core.serialization import load_graph
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock

# Imported here, not by solve_point (see repro.campaign.executor), so a
# block's first solve pays no import.
import repro.core.solver  # noqa: F401

__all__ = ["ResolvedBlock", "resolve_block"]


@dataclass(frozen=True)
class ResolvedBlock:
    """A block graph plus provenance: where it came from and its digest."""

    graph: HostSwitchGraph
    h_aspl: float
    digest: str
    point: dict[str, Any]
    cached: bool
    source: str
    """``"store"`` (exact digest hit), ``"store-best"`` (best known result
    at the block's ``(n, r)``), or ``"solved"`` (fresh ``solve_point``)."""


def resolve_block(
    n: int,
    r: int,
    *,
    store: CampaignStore | None = None,
    use_best: bool = True,
    telemetry: TelemetryRegistry | None = None,
    **solver_params: Any,
) -> ResolvedBlock:
    """Fetch (or solve and memoize) the ORP block for ``(n, r)``.

    ``solver_params`` are ORP point fields by name
    (:data:`~repro.campaign.spec.SOLVER_FIELDS`); the block is the plain
    ORP point ``{"n": n, "r": r, **solver_params}``, normalized and
    digested like a campaign's, so an unknown or ill-typed keyword raises
    :class:`~repro.campaign.spec.SpecError`.  With no ``store`` the block
    is solved in-memory every time.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    # Only solver fields: a ``kind`` would file the ORP solution under
    # another kind's digest, where that kind's campaign would find it.
    unknown = set(solver_params) - set(SOLVER_FIELDS)
    if unknown:
        raise SpecError(f"unknown block solver field(s) {sorted(unknown)}")
    point = normalize_point({"n": n, "r": r, **solver_params})
    digest = point_digest(point)
    if store is not None:
        if store.has_result(digest):
            try:
                solution = store.load_result(digest)
            except StoreError:
                # Torn/corrupt cached artifact: fall through to the
                # best-known or solve path rather than failing the block.
                solution = None
            if solution is not None:
                tel.event(
                    "compose.block_cached",
                    digest=digest,
                    n=n,
                    r=r,
                    h_aspl=solution.h_aspl,
                    source="store",
                )
                return ResolvedBlock(
                    graph=solution.graph,
                    h_aspl=solution.h_aspl,
                    digest=digest,
                    point=point,
                    cached=True,
                    source="store",
                )
        if use_best:
            best = store.best_for(n, r)
            if best is not None:
                tel.event(
                    "compose.block_cached",
                    digest=best.digest,
                    n=n,
                    r=r,
                    h_aspl=best.h_aspl,
                    source="store-best",
                )
                return ResolvedBlock(
                    graph=load_graph(best.graph_path),
                    h_aspl=best.h_aspl,
                    digest=best.digest,
                    point=dict(best.point),
                    cached=True,
                    source="store-best",
                )

    t0 = obs_clock()
    solution = solve_point(point, telemetry=telemetry)
    if store is not None:
        store.save_result(digest, point, solution)
    tel.event(
        "compose.block_solved",
        digest=digest,
        n=n,
        r=r,
        h_aspl=solution.h_aspl,
        wall_s=obs_clock() - t0,
    )
    return ResolvedBlock(
        graph=solution.graph,
        h_aspl=solution.h_aspl,
        digest=digest,
        point=point,
        cached=False,
        source="solved",
    )
