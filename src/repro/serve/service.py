"""Topology-as-a-service: query answering over warm store shards.

:class:`TopologyService` is the engine behind ``repro serve`` — it turns a
campaign store root (each campaign directory is one *shard*) into a
query backend for "best known topology for ``(n, r)``":

- **index answers** — each shard keeps a warm leaderboard
  (:class:`repro.campaign.index.Leaderboard`) and a byte cursor into its
  append-only index (:class:`repro.campaign.store.IndexCursor`); per query
  it folds in only the complete lines appended since the last query, so an
  unchanged index costs one ``stat`` and no read, and a changed shard is
  picked up on the next query without any invalidation protocol.
- **compose fallback** — an uncovered ``(n, r)`` is planned as a Mizuno
  composition (:func:`repro.compose.mizuno.plan_composition`); when a
  shard holds the plan's block, the answer is the analytically predicted
  fabric h-ASPL (:mod:`repro.compose.predict`) with the block's digest as
  provenance.  Block summaries are memoized per shard and block digest
  (blocks are content-addressed), so only the first answer from a block
  loads and measures it.
- **bounds fallback** — failing both, the theoretical floor
  (:func:`repro.core.bounds.h_aspl_lower_bound` et al.) so every feasible
  query gets *an* answer.
- **background refinement** — a miss optionally kicks off a real solve
  (:func:`repro.compose.blocks.resolve_block` into a dedicated refine
  shard) in a worker thread, **single-flight per (n, r)**: concurrent
  misses on one key share one refinement, and a completed refinement is
  an index hit on the next query.

Concurrency model: one thread.  :meth:`TopologyService.query` resolves
its answer in one synchronous call that never suspends, so queries run
one after another on the event loop, and only the loop thread touches the
shards, their leaderboards and the block memo.  The one thread hop is the
refinement solve, run in ``asyncio.to_thread`` with a private telemetry
registry merged back on completion (JSONL sinks are not thread-safe).
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.campaign.index import IndexEntry, Leaderboard
from repro.campaign.store import BestPoint, CampaignStore, IndexCursor
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock
from repro.serve.protocol import QueryAnswer

if TYPE_CHECKING:
    from repro.compose.predict import BlockSummary

__all__ = ["ServeBusy", "ServeConfig", "TopologyService"]

#: Restarts and seed of every background refinement solve.
_REFINE_RESTARTS = 1
_REFINE_SEED = 0


class ServeBusy(RuntimeError):
    """The service is draining; the caller should retry against a new server."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`TopologyService`."""

    store_root: Path
    campaigns: tuple[str, ...] = ()
    """Shard (campaign) names to serve; empty discovers every campaign
    directory under ``store_root`` at startup."""
    block_hosts: int | None = None
    """Block size cap handed to :func:`plan_composition` for the compose
    fallback (``None`` uses the library default of 1024)."""
    refine: bool = True
    """Kick off a background solve on cache miss."""
    refine_steps: int = 2_000
    refine_campaign: str = "serve-refine"
    """Shard receiving refinement results (created on first refinement;
    also queried, so refined answers become index hits)."""


@dataclass
class _Shard:
    """One campaign store: its warm leaderboard and block summaries."""

    store: CampaignStore
    cursor: IndexCursor
    board: Leaderboard = field(default_factory=Leaderboard)
    summaries: dict[str, BlockSummary] = field(default_factory=dict)
    """Block summary per block digest; never holds a block that failed to
    load."""

    def refresh(self) -> Leaderboard:
        """The leaderboard, with the index lines appended since the last
        refresh folded in (rebuilt when the cursor had to read it all)."""
        full, entries = self.cursor.read()
        if full:
            self.board = Leaderboard()
        self.board.fold(entries)
        return self.board

    def block(self, entry: IndexEntry) -> tuple[BestPoint, BlockSummary] | None:
        """A stored block and its (memoized) summary; ``None`` when the
        block fails to verify, or its graph to load or measure."""
        from repro.compose import predict
        from repro.core.serialization import load_graph

        block = self.store.verify_entry(entry)
        if block is None:
            return None
        summary = self.summaries.get(block.digest)
        if summary is None:
            try:
                summary = predict.summarize_block(load_graph(block.graph_path))
            except (OSError, ValueError, IndexError):
                return None  # a corrupt graph fails like a failed verification
            self.summaries[block.digest] = summary
        return block, summary


class TopologyService:
    """Answer "best known topology for ``(n, r)``" queries (see module doc).

    Construct, then call :meth:`query` from the owning event loop; call
    :meth:`aclose` to drain.  Not thread-safe by design — all state is
    event-loop-confined.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.config = config
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        names = list(config.campaigns) or self._discover(config.store_root)
        if config.refine_campaign not in names:
            names.append(config.refine_campaign)
        stores = [CampaignStore(config.store_root, name) for name in names]
        self._shards = [_Shard(store, IndexCursor(store.index_path)) for store in stores]
        self._refining: dict[tuple[int, int], asyncio.Task[None]] = {}
        """Running refinement per key; a task removes itself when it ends."""
        self._closing = False
        self.counts = {"queries": 0, "hits": 0, "misses": 0, "refinements": 0}

    @staticmethod
    def _discover(root: Path) -> list[str]:
        if not root.is_dir():
            return []
        return sorted(
            p.name for p in root.iterdir() if (p / "spec.json").exists()
        )

    @property
    def shard_names(self) -> list[str]:
        return [shard.store.name for shard in self._shards]

    # ------------------------------------------------------------ query --

    async def query(self, n: int, r: int) -> QueryAnswer:
        """Answer one query and start a refinement on a miss.

        A coroutine for its callers' sake only: the answer is resolved
        without suspending.  Raises :class:`ServeBusy` once the service is
        draining, and :class:`ValueError` for infeasible shapes (``r < 3``).
        """
        if self._closing:
            raise ServeBusy("service is draining")
        self.counts["queries"] += 1
        self.tel.event("serve.request", n=n, r=r)
        t0 = obs_clock()
        answer, unverified = self._answer(n, r)
        self.tel.timer("serve.query_s").observe(obs_clock() - t0)
        if answer.source == "index":
            self.counts["hits"] += 1
            self.tel.event(
                "serve.hit", n=n, r=r, h_aspl=answer.h_aspl, unverified=unverified
            )
        else:
            self.counts["misses"] += 1
            self.tel.event(
                "serve.miss", n=n, r=r, source=answer.source, unverified=unverified
            )
            answer = dataclasses.replace(answer, refine=self._start_refine(n, r))
        return answer

    def _answer(self, n: int, r: int) -> tuple[QueryAnswer, int]:
        """Resolve one key: index -> compose prediction -> bounds.

        Also returns how many of the key's index candidates failed
        verification on the way (the ``unverified`` field of
        ``serve.hit`` / ``serve.miss``: why a stored key missed).
        """
        boards = [shard.refresh() for shard in self._shards]
        best: tuple[Any, str] | None = None
        unverified = 0
        for shard, board in zip(self._shards, boards):
            for entry in board.candidates(n, r):
                verified = shard.store.verify_entry(entry)
                if verified is None:
                    unverified += 1
                    continue
                if best is None or (verified.h_aspl, verified.digest) < (
                    best[0].h_aspl,
                    best[0].digest,
                ):
                    best = (verified, shard.store.name)
                break  # candidates are best-first; first verified wins
        if best is not None:
            point, campaign = best
            return QueryAnswer(
                n=n,
                r=r,
                source="index",
                h_aspl=point.h_aspl,
                digest=point.digest,
                campaign=campaign,
                graph_path=str(point.graph_path),
            ), unverified
        return self._fallback(n, r, boards), unverified

    def _fallback(self, n: int, r: int, boards: list[Leaderboard]) -> QueryAnswer:
        """A key with no verified index entry: compose prediction, else bounds."""
        from repro.compose.mizuno import plan_composition
        from repro.compose.predict import predict_h_aspl, predict_host_diameter
        from repro.core.bounds import (
            diameter_lower_bound,
            h_aspl_lower_bound,
            lacin_h_aspl_baseline,
        )

        bounds = {
            "h_aspl_lower_bound": h_aspl_lower_bound(n, r),
            "diameter_lower_bound": diameter_lower_bound(n, r),
            "lacin_h_aspl_baseline": lacin_h_aspl_baseline(n, r),
        }
        try:
            plan = plan_composition(n, r, block_hosts=self.config.block_hosts)
        except ValueError:
            return QueryAnswer(n=n, r=r, source="bounds", **bounds)
        if plan.copies > 1:
            for shard, board in zip(self._shards, boards):
                for entry in board.candidates(plan.block_hosts, plan.block_radix):
                    found = shard.block(entry)
                    if found is None:
                        continue
                    block, summary = found
                    return QueryAnswer(
                        n=n,
                        r=r,
                        source="compose-predicted",
                        h_aspl=predict_h_aspl(summary, plan.copies),
                        digest=block.digest,
                        campaign=shard.store.name,
                        detail={
                            "copies": plan.copies,
                            "block_hosts": plan.block_hosts,
                            "block_radix": plan.block_radix,
                            "fabric_hosts": plan.n,
                            "predicted_host_diameter": predict_host_diameter(
                                summary, plan.copies
                            ),
                            "block_h_aspl": block.h_aspl,
                        },
                        **bounds,
                    )
        return QueryAnswer(n=n, r=r, source="bounds", **bounds)

    # ----------------------------------------------------------- refine --

    def _start_refine(self, n: int, r: int) -> str:
        """Single-flight background refinement for a missed key."""
        if not self.config.refine or self._closing:
            return "disabled"
        key = (n, r)
        if key in self._refining:
            return "in-flight"
        self.counts["refinements"] += 1
        self.tel.event("serve.refine.start", n=n, r=r)
        self._refining[key] = asyncio.get_running_loop().create_task(
            self._refine(n, r)
        )
        return "started"

    async def _refine(self, n: int, r: int) -> None:
        t0 = obs_clock()
        try:
            h_aspl, snapshot = await asyncio.to_thread(self._refine_solve, n, r)
        except Exception as exc:
            self.tel.event(
                "serve.refine.failed", n=n, r=r, error=f"{type(exc).__name__}: {exc}"
            )
            return
        finally:
            del self._refining[(n, r)]
        if snapshot is not None:
            # Solver telemetry was collected in a private registry on the
            # worker thread (sinks are not thread-safe); fold it in from
            # the loop thread, exactly like the campaign pool does.
            self.tel.merge(snapshot)
        self.tel.event(
            "serve.refine.done", n=n, r=r, h_aspl=h_aspl, wall_s=obs_clock() - t0
        )

    def _refine_solve(self, n: int, r: int) -> tuple[float, dict[str, Any] | None]:
        """Worker-thread solve into the refine shard (own registry)."""
        from repro.compose.blocks import resolve_block

        cfg = self.config
        store = CampaignStore(cfg.store_root, cfg.refine_campaign)
        worker_tel = (
            TelemetryRegistry(f"refine-{n}-{r}") if self.tel.enabled else None
        )
        block = resolve_block(
            n,
            r,
            store=store,
            use_best=False,
            telemetry=worker_tel,
            steps=cfg.refine_steps,
            restarts=_REFINE_RESTARTS,
            seed=_REFINE_SEED,
        )
        snapshot = worker_tel.snapshot() if worker_tel is not None else None
        return block.h_aspl, snapshot

    # ------------------------------------------------------------ stats --

    def stats(self) -> dict[str, Any]:
        return {**self.counts, "shards": self.shard_names, "refining": len(self._refining)}

    # ------------------------------------------------------------ close --

    async def aclose(self) -> None:
        """Stop accepting queries; let running refinements finish."""
        self._closing = True
        self.tel.event("serve.drain", refining=len(self._refining))
        if self._refining:
            await asyncio.gather(*self._refining.values(), return_exceptions=True)
        for shard in self._shards:
            shard.cursor.close()
        self.tel.event("serve.stop", **self.counts)
