"""Robust campaign execution: worker pool, retries, timeouts, SIGINT drain.

Execution model
---------------
Points whose digest already has a result are served from the store without
touching the solver ("cached").  Remaining points run through
:func:`repro.campaign.spec.solve_point` under a
:class:`~repro.campaign.checkpoint.PointCheckpointer`:

- ``jobs == 1`` — in-process, one point at a time.  SIGINT (and the
  deterministic ``stop_after_checkpoints`` test hook) set a flag that the
  checkpoint hook turns into :class:`CampaignInterrupted` at the next
  checkpoint boundary, so the drain always leaves a clean resumable
  checkpoint behind.
- ``jobs > 1`` — points fan out over a ``ProcessPoolExecutor`` whose
  workers ignore SIGINT; on interrupt the parent stops dispatching, lets
  in-flight points finish (they checkpoint as they go), and cancels the
  queue.  Campaign parallelism is across points; restarts inside a point
  stay serial (the checkpointer requirement).

Failure semantics
-----------------
A crashing point is retried up to ``executor.retries`` times with
exponential backoff, then recorded as a failure *artifact* in the store —
the campaign keeps going.  Timeouts (checked at checkpoint boundaries) are
never retried but keep their checkpoint, so a resume with a larger
``timeout_s`` continues where the budget ran out.
"""

from __future__ import annotations

import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign.checkpoint import (
    CampaignInterrupted,
    PointCheckpointer,
    PointTimeout,
)
from repro.campaign.spec import (
    SOLVER_FIELDS,
    CampaignSpec,
    ExecutorConfig,
    point_digest,
    solve_point,
)
from repro.campaign.store import CampaignStore, StoreError
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock

__all__ = ["PointOutcome", "CampaignRunResult", "run_campaign"]

FAILURE_FORMAT = "repro.campaign.failure/v1"

#: Minimum spacing between ``campaign.heartbeat`` events.  Checkpoints can
#: land many times a second on small points; a live trace only needs a
#: liveness signal, not one record per checkpoint.
HEARTBEAT_EVERY_S = 5.0

_TERMINAL = ("cached", "solved", "failed")


@dataclass(frozen=True)
class PointOutcome:
    """What happened to one point during a campaign run."""

    digest: str
    point: dict[str, Any]
    status: str
    """``cached`` (served from store), ``solved`` (ran this pass),
    ``failed`` (failure artifact recorded), or ``interrupted``."""
    attempts: int = 0
    error: str | None = None
    h_aspl: float | None = None
    wall_time_s: float = 0.0


@dataclass
class CampaignRunResult:
    """Aggregate outcome of one :func:`run_campaign` pass."""

    name: str
    outcomes: list[PointOutcome] = field(default_factory=list)
    interrupted: bool = False

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def solver_work_done(self) -> bool:
        """Whether any point actually ran the solver this pass."""
        return any(o.status == "solved" for o in self.outcomes)

    def summary(self) -> str:
        parts = [f"campaign {self.name}: {len(self.outcomes)} point(s)"]
        for status in ("solved", "cached", "failed", "interrupted"):
            count = self.count(status)
            if count:
                parts.append(f"{count} {status}")
        text = parts[0] + (" — " + ", ".join(parts[1:]) if parts[1:] else "")
        if self.interrupted:
            text += " [drained on interrupt; resume to continue]"
        return text


class _InterruptFlag:
    """SIGINT latch; install/uninstall around a campaign pass."""

    def __init__(self) -> None:
        self.tripped = False
        self._previous: Any = None

    def __enter__(self) -> _InterruptFlag:
        def handler(signum: int, frame: Any) -> None:
            self.tripped = True

        try:
            self._previous = signal.signal(signal.SIGINT, handler)
        except ValueError:  # not the main thread; flag stays manual
            self._previous = None
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._previous is not None:
            signal.signal(signal.SIGINT, self._previous)


def _ignore_sigint() -> None:  # pragma: no cover - runs in pool workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _build_point_graph(point: dict[str, Any]) -> Any:
    """The seeded graph a non-solver point (e.g. resilience) runs against."""
    from repro.core.construct import (
        random_host_switch_graph,
        random_regular_host_switch_graph,
    )
    from repro.core.moore import optimal_switch_count

    n, r = point["n"], point["r"]
    m = point["m"] if point["m"] is not None else optimal_switch_count(n, r)[0]
    if point["construction"] == "regular":
        return random_regular_host_switch_graph(n, m, r, seed=point["graph_seed"])
    return random_host_switch_graph(n, m, r, seed=point["graph_seed"])


def _solve_point(
    store: CampaignStore,
    digest: str,
    point: dict[str, Any],
    cfg: ExecutorConfig,
    telemetry: TelemetryRegistry | None,
    on_checkpoint: Any = None,
) -> Any:
    """One solver attempt for ``point`` under checkpoint/timeout control."""
    deadline = None if cfg.timeout_s is None else obs_clock() + cfg.timeout_s

    def hook() -> None:
        if on_checkpoint is not None:
            on_checkpoint()
        if deadline is not None and obs_clock() > deadline:
            raise PointTimeout(
                f"point {digest[:12]} exceeded timeout_s={cfg.timeout_s}"
            )

    if point.get("kind") == "resilience":
        from repro.analysis.resilience import failure_sweep

        # Trials are cheap and independent, so there is no annealer-style
        # checkpoint state to persist; trial boundaries still honor the
        # interrupt flag and the timeout budget via the same hook.
        return failure_sweep(
            _build_point_graph(point),
            mode=point["mode"],
            failures=point["failures"],
            trials=point["trials"],
            seed=point["seed"],
            telemetry=telemetry,
            on_trial=lambda _trial: hook(),
        )

    if point.get("kind") == "compose":
        from repro.compose.fabric import build_fabric

        # The fabric build itself is not checkpointed (it is fast relative
        # to the block search); the block sub-solve memoizes into the same
        # store under its own plain-ORP digest, so an interrupted compose
        # point resumes with its block already cached.
        return build_fabric(
            point["n"],
            point["r"],
            copies=point["copies"],
            block_hosts=point["block_hosts"],
            store=store,
            measure=point["measure"],
            telemetry=telemetry,
            **{key: point[key] for key in SOLVER_FIELDS},
        )

    checkpointer = PointCheckpointer(
        store, digest, cfg.checkpoint_every, on_checkpoint=hook
    )
    return solve_point(point, telemetry=telemetry, checkpointer=checkpointer)


def _execute_point(
    store: CampaignStore,
    point: dict[str, Any],
    cfg: ExecutorConfig,
    telemetry: TelemetryRegistry | None,
    on_checkpoint: Any = None,
) -> PointOutcome:
    """Run one point to a terminal state (retry loop, failure artifacts)."""
    digest = point_digest(point)
    t0 = obs_clock()
    attempts = 0
    last_error = ""
    while attempts <= cfg.retries:
        attempts += 1
        try:
            solution = _solve_point(
                store, digest, point, cfg, telemetry, on_checkpoint
            )
        except (CampaignInterrupted, KeyboardInterrupt):
            return PointOutcome(
                digest=digest,
                point=point,
                status="interrupted",
                attempts=attempts,
                wall_time_s=obs_clock() - t0,
            )
        except PointTimeout as exc:
            # Not retryable, but the checkpoint survives: a resume with a
            # larger budget continues from here instead of starting over.
            store.save_failure(
                digest,
                {
                    "format": FAILURE_FORMAT,
                    "kind": "timeout",
                    "point": point,
                    "error": str(exc),
                    "attempts": attempts,
                },
            )
            return PointOutcome(
                digest=digest,
                point=point,
                status="failed",
                attempts=attempts,
                error=str(exc),
                wall_time_s=obs_clock() - t0,
            )
        except Exception as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            if attempts <= cfg.retries:
                time.sleep(cfg.backoff_s * 2 ** (attempts - 1))
                continue
            store.save_failure(
                digest,
                {
                    "format": FAILURE_FORMAT,
                    "kind": "error",
                    "point": point,
                    "error": last_error,
                    "traceback": traceback.format_exc(),
                    "attempts": attempts,
                },
            )
            return PointOutcome(
                digest=digest,
                point=point,
                status="failed",
                attempts=attempts,
                error=last_error,
                wall_time_s=obs_clock() - t0,
            )
        else:
            store.save_result(digest, point, solution)
            return PointOutcome(
                digest=digest,
                point=point,
                status="solved",
                attempts=attempts,
                h_aspl=solution.h_aspl,
                wall_time_s=obs_clock() - t0,
            )
    raise AssertionError("unreachable")  # pragma: no cover


def _pool_execute_point(
    store_root: str,
    name: str,
    point: dict[str, Any],
    cfg: ExecutorConfig,
    collect: bool,
) -> tuple[PointOutcome, dict[str, Any] | None]:
    """Pool-worker entry: re-open the store, run, return telemetry snapshot."""
    store = CampaignStore(store_root, name)
    worker_tel = (
        TelemetryRegistry(f"point-{point_digest(point)[:12]}") if collect else None
    )
    outcome = _execute_point(store, point, cfg, worker_tel)
    return outcome, (worker_tel.snapshot() if worker_tel is not None else None)


def run_campaign(
    spec: CampaignSpec,
    store_root: str | Path,
    *,
    telemetry: TelemetryRegistry | None = None,
    jobs: int | None = None,
    stop_after_checkpoints: int | None = None,
) -> CampaignRunResult:
    """Run (or resume) every point of ``spec`` to a terminal state.

    Idempotent by construction: already-solved points are served from the
    content-addressed store with zero solver work, interrupted points
    resume bit-identically from their checkpoints, and failed points are
    retried on the next pass.

    Parameters
    ----------
    spec:
        Validated campaign spec (see :func:`repro.campaign.spec.load_spec`).
    store_root:
        Directory holding campaign stores (``<root>/<spec.name>/``).
    telemetry:
        Optional registry receiving one ``campaign.point`` event per point
        plus a ``campaign.done`` summary; pool workers merge their
        snapshots in, exactly like the solver's restart fan-out.
    jobs:
        Override ``spec.executor.jobs`` (the CLI flag).
    stop_after_checkpoints:
        Deterministic interrupt injection for tests/CI: drain the campaign
        at the Nth persisted annealer checkpoint, exactly as SIGINT would
        at that moment.  Forces in-process execution.

    Returns
    -------
    CampaignRunResult
        Per-point outcomes; ``interrupted`` is set when the pass drained
        early (the CLI maps it to exit code 130).
    """
    store = CampaignStore(store_root, spec.name)
    store.save_spec(spec)
    cfg = spec.executor
    effective_jobs = cfg.jobs if jobs is None else jobs
    if effective_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {effective_jobs}")
    if stop_after_checkpoints is not None:
        if stop_after_checkpoints < 1:
            raise ValueError(
                f"stop_after_checkpoints must be >= 1, got {stop_after_checkpoints}"
            )
        effective_jobs = 1

    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    result = CampaignRunResult(name=spec.name)
    pending: list[tuple[str, dict[str, Any]]] = []
    for point in spec.points:
        digest = point_digest(point)
        solution = None
        if store.has_result(digest):
            try:
                solution = store.load_result(digest)
            except StoreError:
                # A corrupt cached artifact (torn result.json from a killed
                # run) is not a reason to crash the whole pass: treat the
                # point as pending and re-solve it, which heals the store
                # by replacing the bad artifact.
                solution = None
        if solution is not None:
            result.outcomes.append(
                PointOutcome(
                    digest=digest,
                    point=point,
                    status="cached",
                    h_aspl=solution.h_aspl,
                )
            )
        else:
            pending.append((digest, point))

    total_points = len(spec.points)
    checkpoints_seen = 0
    last_heartbeat = float("-inf")

    def emit_heartbeat(in_flight: int) -> None:
        """Throttled liveness event for `repro monitor` (live sinks only)."""
        nonlocal last_heartbeat
        if not tel.enabled:
            return
        now = obs_clock()
        if now - last_heartbeat < HEARTBEAT_EVERY_S:
            return
        last_heartbeat = now
        tel.event(
            "campaign.heartbeat",
            campaign=spec.name,
            checkpoints=checkpoints_seen,
            done=len(result.outcomes),
            points=total_points,
            in_flight=in_flight,
        )

    def emit_progress(done: int, *, counts: bool) -> None:
        """Per-point progress event.  ``counts=False`` is the pool path:
        completion order varies run to run, so only the monotonic done
        count is reported there (the status split waits for the
        dispatch-order fold)."""
        fields: dict[str, Any] = {
            "campaign": spec.name,
            "points": total_points,
            "done": done,
        }
        if counts:
            fields.update(
                solved=result.count("solved"),
                cached=result.count("cached"),
                failed=result.count("failed"),
                interrupted=result.count("interrupted"),
                retried=sum(max(0, o.attempts - 1) for o in result.outcomes),
            )
        tel.event("campaign.progress", **fields)

    with _InterruptFlag() as flag:

        def on_checkpoint() -> None:
            nonlocal checkpoints_seen
            checkpoints_seen += 1
            emit_heartbeat(in_flight=1)
            if (
                stop_after_checkpoints is not None
                and checkpoints_seen >= stop_after_checkpoints
            ):
                flag.tripped = True
            if flag.tripped:
                raise CampaignInterrupted(
                    f"drain requested after {checkpoints_seen} checkpoint(s)"
                )

        if effective_jobs == 1 or len(pending) <= 1:
            for digest, point in pending:
                if flag.tripped:
                    result.outcomes.append(
                        PointOutcome(digest=digest, point=point, status="interrupted")
                    )
                    continue
                outcome = _execute_point(store, point, cfg, telemetry, on_checkpoint)
                result.outcomes.append(outcome)
                if tel.enabled:
                    emit_progress(len(result.outcomes), counts=True)
        else:
            collect = tel.enabled
            with ProcessPoolExecutor(
                max_workers=min(effective_jobs, len(pending)),
                initializer=_ignore_sigint,
            ) as pool:
                futures = {
                    pool.submit(
                        _pool_execute_point,
                        str(store_root),
                        spec.name,
                        point,
                        cfg,
                        collect,
                    ): index
                    for index, (digest, point) in enumerate(pending)
                }
                # Results are keyed by dispatch index and folded only after
                # the pool drains: future *completion* order varies run to
                # run, so appending/merging inside the wait loop would make
                # outcome order and telemetry nondeterministic (REP011).
                gathered: dict[int, tuple[PointOutcome, dict[str, Any] | None]] = {}
                remaining = set(futures)
                reported = -1
                while remaining:
                    done, remaining = wait(
                        remaining, timeout=0.2, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        gathered[futures[future]] = future.result()
                    if tel.enabled:
                        # Count-only while the pool runs (completion order
                        # is nondeterministic); the status split is folded
                        # in dispatch order after the drain.
                        done_count = len(result.outcomes) + len(gathered)
                        if done_count != reported:
                            reported = done_count
                            emit_progress(done_count, counts=False)
                        emit_heartbeat(in_flight=len(remaining))
                    if flag.tripped and remaining:
                        # Drain: cancel what has not started, let in-flight
                        # points finish (their checkpoints keep landing).
                        for future in list(remaining):
                            if future.cancel():
                                digest, point = pending[futures[future]]
                                gathered[futures[future]] = (
                                    PointOutcome(
                                        digest=digest,
                                        point=point,
                                        status="interrupted",
                                    ),
                                    None,
                                )
                                remaining.discard(future)
            for index in sorted(gathered):
                outcome, snapshot = gathered[index]
                if snapshot is not None:
                    tel.merge(snapshot)
                result.outcomes.append(outcome)

        result.interrupted = flag.tripped and any(
            o.status == "interrupted" for o in result.outcomes
        )

    if tel.enabled:
        for outcome in result.outcomes:
            tel.event(
                "campaign.point",
                digest=outcome.digest,
                status=outcome.status,
                attempts=outcome.attempts,
                h_aspl=outcome.h_aspl,
                wall_time_s=outcome.wall_time_s,
                error=outcome.error,
            )
        tel.event(
            "campaign.done",
            campaign=spec.name,
            points=len(result.outcomes),
            solved=result.count("solved"),
            cached=result.count("cached"),
            failed=result.count("failed"),
            interrupted=result.count("interrupted"),
        )
    return result
