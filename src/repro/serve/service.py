"""Topology-as-a-service: async query answering over warm store shards.

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

Concurrency model: everything except the fallback answers and the solver
runs on the event loop — one thread, no locks.  The leaderboards change in
place, so the loop thread takes the candidate lists before handing a
fallback answer to a worker thread.  Concurrent queries for the same
``(n, r)`` are *batched* behind one shared future; distinct keys run under
a semaphore (``max_concurrency``); queries beyond ``max_pending`` waiting
are rejected fast (:class:`ServeBusy`) instead of queueing unboundedly.
Refinement solves run in ``asyncio.to_thread`` with a private telemetry
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
    from repro.compose.mizuno import ComposePlan
    from repro.compose.predict import BlockSummary

__all__ = ["ServeBusy", "ServeConfig", "TopologyService"]


class ServeBusy(RuntimeError):
    """Too many queries waiting; the caller should back off and retry."""


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
    refine_restarts: int = 1
    refine_seed: int = 0
    refine_campaign: str = "serve-refine"
    """Shard receiving refinement results (created on first refinement;
    also queried, so refined answers become index hits)."""
    max_concurrency: int = 8
    """Distinct keys answered concurrently (semaphore width)."""
    max_pending: int = 64
    """Queries allowed to wait for a slot before fast rejection."""


@dataclass
class _Shard:
    """One campaign store: its warm leaderboard and block summaries."""

    store: CampaignStore
    cursor: IndexCursor
    board: Leaderboard = field(default_factory=Leaderboard)
    summaries: dict[str, BlockSummary] = field(default_factory=dict)
    """Block summary per block digest; filled by fallback worker threads
    (one dict store each), never with a block that failed to load."""

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
        self._slots = asyncio.Semaphore(config.max_concurrency)
        self._waiting = 0
        self._inflight: dict[tuple[int, int], asyncio.Future[QueryAnswer]] = {}
        self._refining: dict[tuple[int, int], asyncio.Task[None]] = {}
        self._closing = False
        self.counts = {
            "queries": 0,
            "hits": 0,
            "misses": 0,
            "batched": 0,
            "rejected": 0,
            "refinements": 0,
        }

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
        """Answer one query; batches, rate-limits, and triggers refinement.

        Raises :class:`ServeBusy` when ``max_pending`` queries are already
        waiting, and :class:`ValueError` for infeasible shapes (``r < 3``).
        """
        if self._closing:
            raise ServeBusy("service is draining")
        key = (n, r)
        self.counts["queries"] += 1
        self.tel.event("serve.request", n=n, r=r)
        shared = self._inflight.get(key)
        if shared is not None:
            # Same-key queries share one in-flight answer; shield so one
            # cancelled waiter does not cancel the computation for all.
            self.counts["batched"] += 1
            self.tel.event("serve.batched", n=n, r=r)
            return await asyncio.shield(shared)
        if self._waiting >= self.config.max_pending:
            self.counts["rejected"] += 1
            self.tel.event("serve.rejected", n=n, r=r, waiting=self._waiting)
            raise ServeBusy(
                f"{self._waiting} queries already waiting (max_pending="
                f"{self.config.max_pending})"
            )
        future: asyncio.Future[QueryAnswer] = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._waiting += 1
        acquired = False
        t0 = obs_clock()
        try:
            await self._slots.acquire()
            acquired = True
            self._waiting -= 1
            answer = await self._answer(n, r)
            future.set_result(answer)
        except BaseException as exc:
            if not acquired:
                self._waiting -= 1
            if not future.done():
                if isinstance(exc, Exception):
                    future.set_exception(exc)
                    # Mark retrieved so an un-awaited shared future does
                    # not warn on teardown when no one batched onto it.
                    future.exception()
                else:
                    future.cancel()
            raise
        finally:
            if acquired:
                self._slots.release()
            if self._inflight.get(key) is future:
                del self._inflight[key]
        self.tel.timer("serve.query_s").observe(obs_clock() - t0)
        if answer.source == "index":
            self.counts["hits"] += 1
            self.tel.event("serve.hit", n=n, r=r, h_aspl=answer.h_aspl)
        else:
            self.counts["misses"] += 1
            self.tel.event("serve.miss", n=n, r=r, source=answer.source)
            refine = self._start_refine(n, r)
            answer = dataclasses.replace(answer, refine=refine)
        return answer

    async def _answer(self, n: int, r: int) -> QueryAnswer:
        """Resolve one key: index -> compose prediction -> bounds."""
        from repro.compose.mizuno import plan_composition

        boards = [shard.refresh() for shard in self._shards]
        best: tuple[Any, str] | None = None
        for shard, board in zip(self._shards, boards):
            for entry in board.candidates(n, r):
                verified = shard.store.verify_entry(entry)
                if verified is None:
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
            )
        try:
            plan: ComposePlan | None = plan_composition(
                n, r, block_hosts=self.config.block_hosts
            )
        except ValueError:
            plan = None
        blocks: list[tuple[_Shard, list[IndexEntry]]] = []
        if plan is not None and plan.copies > 1:
            blocks = [
                (shard, board.candidates(plan.block_hosts, plan.block_radix))
                for shard, board in zip(self._shards, boards)
            ]
        return await asyncio.to_thread(self._fallback_answer, n, r, plan, blocks)

    def _fallback_answer(
        self,
        n: int,
        r: int,
        plan: ComposePlan | None,
        blocks: list[tuple[_Shard, list[IndexEntry]]],
    ) -> QueryAnswer:
        """Compose-prediction or bounds answer (worker thread; CPU-bound).

        ``blocks`` holds each shard's best-first candidates for the plan's
        block, taken on the loop thread.
        """
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
        if plan is not None:
            for shard, candidates in blocks:
                for entry in candidates:
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
        task = self._refining.get(key)
        if task is not None and not task.done():
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
            restarts=cfg.refine_restarts,
            seed=cfg.refine_seed,
        )
        snapshot = worker_tel.snapshot() if worker_tel is not None else None
        return block.h_aspl, snapshot

    # ------------------------------------------------------------ stats --

    def stats(self) -> dict[str, Any]:
        return {
            **self.counts,
            "shards": self.shard_names,
            "in_flight": len(self._inflight),
            "refining": sum(1 for t in self._refining.values() if not t.done()),
            "waiting": self._waiting,
        }

    # ------------------------------------------------------------ close --

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop accepting work; optionally await in-flight work first."""
        self._closing = True
        self.tel.event(
            "serve.drain",
            in_flight=len(self._inflight),
            refining=sum(1 for t in self._refining.values() if not t.done()),
        )
        pending = [f for f in self._inflight.values() if not f.done()]
        refines = [t for t in self._refining.values() if not t.done()]
        if drain:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            if refines:
                await asyncio.gather(*refines, return_exceptions=True)
        else:
            for task in refines:
                task.cancel()
            if refines:
                await asyncio.gather(*refines, return_exceptions=True)
        for shard in self._shards:
            shard.cursor.close()
        self.tel.event("serve.stop", **self.counts)
