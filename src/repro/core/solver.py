"""End-to-end ORP solver — the paper's "proposed topology" (Section 5.3).

The design rule distilled from Fig. 5: for given ``(n, r)``,

1. pick ``m = m_opt``, the minimiser of the continuous Moore bound;
2. build a connected random host-switch graph with that many switches;
3. run simulated annealing with the 2-neighbor swing operation.

:func:`solve_orp` packages the pipeline (with overridable ``m``, schedule,
restarts, worker processes, and seed) and reports the result against the
Theorem-2 lower bound.  Restarts fan out over a ``ProcessPoolExecutor``
when ``jobs > 1``; per-restart seeds are spawned deterministically from one
master ``SeedSequence`` so serial and parallel runs return the same best
graph.

Every restart — serial or parallel — reports a :class:`RestartSummary` on
:attr:`ORPSolution.restarts`.  Serial restarts anneal under the caller's
``telemetry`` registry, so their records reach its sinks as they happen and
each ``anneal.run`` span nests under ``solver.anneal_restarts``.  Only pool
workers, which cannot write to the caller's sinks, anneal under a private
registry whose snapshot the caller merges, so a ``jobs=4`` run accounts for
every restart's proposals exactly like a serial one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.core.annealing import AnnealingResult, AnnealingSchedule, anneal
from repro.core.bounds import diameter_lower_bound, h_aspl_lower_bound
from repro.core.construct import (
    clique_host_switch_graph,
    minimum_clique_switch_count,
    random_host_switch_graph,
    random_regular_host_switch_graph,
    star_host_switch_graph,
)
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import h_aspl_and_diameter
from repro.core.moore import continuous_moore_bound, optimal_switch_count
from repro.obs import NULL_TELEMETRY, TelemetryRegistry

__all__ = ["ORPSolution", "RestartSummary", "solve_orp"]

_CONSTRUCTIONS = ("random", "regular")


def _restart_seed_sequences(
    seed: int | np.random.Generator | None, restarts: int
) -> list[np.random.SeedSequence]:
    """Per-restart seed sequences, identical for serial and parallel runs.

    ``SeedSequence.spawn`` children depend only on the root entropy and the
    child index, so restart ``i`` anneals the same trajectory whether the
    fan-out runs in-process or across a process pool — and adding restarts
    never perturbs the earlier ones.
    """
    if isinstance(seed, np.random.Generator):
        # Derive root entropy from the caller's stream so repeated calls
        # with a shared generator explore different restarts.
        root = np.random.SeedSequence(int(seed.integers(2**63)))
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(restarts)


@dataclass(frozen=True)
class RestartSummary:
    """Searchable record of one annealing restart inside :func:`solve_orp`."""

    index: int
    seed_spawn_key: tuple[int, ...]
    initial_h_aspl: float
    h_aspl: float
    steps: int
    accepted: int
    rejected: int
    wall_time_s: float


def _run_restart(
    n: int,
    m: int,
    r: int,
    schedule: AnnealingSchedule | None,
    target: float,
    operation: str,
    construction: str,
    child: np.random.SeedSequence,
    index: int,
    telemetry: TelemetryRegistry,
    checkpointer: Any = None,
) -> AnnealingResult:
    """One annealing restart inside an ``anneal.run`` span on ``telemetry``.

    With a ``checkpointer`` the restart saves checkpoints as it goes and
    resumes from the last one: the starting graph is rebuilt (consuming the
    same RNG draws as the original run) and then :func:`anneal` overwrites
    both the graph and the RNG state from the checkpoint, so the trajectory
    continues bit-identically.
    """
    rng = np.random.default_rng(child)
    if construction == "regular":
        start = random_regular_host_switch_graph(n, m, r, seed=rng)
    else:
        start = random_host_switch_graph(n, m, r, seed=rng)
    resume: dict[str, Any] = {}
    if checkpointer is not None:
        resume = dict(
            checkpoint_every=int(checkpointer.checkpoint_every),
            checkpoint_callback=partial(checkpointer.save_checkpoint, index),
            resume_state=checkpointer.resume_state(index),
        )
    with telemetry.span("anneal.run", index=index, n=n, m=m, r=r):
        return anneal(
            start,
            operation=operation,
            schedule=schedule,
            seed=rng,
            target=target,
            telemetry=telemetry,
            **resume,
        )


def _pool_restart(
    collect: bool, *restart: Any
) -> tuple[AnnealingResult, dict[str, Any]]:
    """Process-pool entry: :func:`_run_restart` under a private registry.

    A pool worker cannot write to the parent's sinks, so a traced restart
    (``collect``) anneals under its own sink-less registry and returns its
    snapshot, a plain dict that pickles, for the parent to merge; an
    untraced one returns an empty snapshot.
    """
    tel = TelemetryRegistry("restart") if collect else NULL_TELEMETRY
    return _run_restart(*restart, telemetry=tel), tel.snapshot()


def _restart_summary(
    index: int, child: np.random.SeedSequence, run: AnnealingResult
) -> RestartSummary:
    return RestartSummary(
        index=index,
        seed_spawn_key=tuple(int(k) for k in child.spawn_key),
        initial_h_aspl=run.initial_h_aspl,
        h_aspl=run.h_aspl,
        steps=run.steps,
        accepted=run.accepted,
        rejected=run.steps - run.accepted,
        wall_time_s=run.wall_time_s,
    )


@dataclass
class ORPSolution:
    """A solved ORP instance with provenance and bound comparison."""

    graph: HostSwitchGraph
    n: int
    r: int
    m: int
    h_aspl: float
    diameter: float
    h_aspl_lower_bound: float
    diameter_lower_bound: int
    moore_bound_at_m: float
    m_predicted: int
    annealing: AnnealingResult | None = None
    restarts: list[RestartSummary] = field(default_factory=list)
    """One :class:`RestartSummary` per annealing restart (empty for the
    trivial regimes, which perform no search)."""

    @property
    def gap(self) -> float:
        """Relative gap of the achieved h-ASPL over the Theorem-2 bound."""
        return self.h_aspl / self.h_aspl_lower_bound - 1.0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"ORP(n={self.n}, r={self.r}): m={self.m} switches "
            f"(continuous-Moore prediction m_opt={self.m_predicted})",
            f"  h-ASPL = {self.h_aspl:.4f}  (lower bound {self.h_aspl_lower_bound:.4f},"
            f" gap {100 * self.gap:.2f}%)",
            f"  diameter = {self.diameter:.0f}  (lower bound {self.diameter_lower_bound})",
        ]
        return "\n".join(lines)


def solve_orp(
    n: int,
    r: int,
    *,
    m: int | None = None,
    schedule: AnnealingSchedule | None = None,
    restarts: int = 1,
    jobs: int = 1,
    seed: int | np.random.Generator | None = 0,
    operation: str = "two-neighbor-swing",
    construction: str = "random",
    telemetry: TelemetryRegistry | None = None,
    checkpointer: Any = None,
) -> ORPSolution:
    """Solve an Order/Radix Problem instance.

    Parameters
    ----------
    n, r:
        Order (hosts) and radix (ports per switch).
    m:
        Switch count override.  Default: the continuous-Moore-bound
        minimiser ``m_opt`` (the paper's rule).
    schedule:
        Annealing schedule (default :class:`AnnealingSchedule`()).
    restarts:
        Independent annealing runs (at least one); the best result is kept
        (ties break to the lowest restart index).
    jobs:
        Worker processes for the restart fan-out.  Restart seeds are
        spawned from one master :class:`numpy.random.SeedSequence`, so any
        ``jobs`` value returns the same best graph as the serial run.
    seed:
        Seed / generator for the whole pipeline.
    operation:
        Neighbourhood operation forwarded to :func:`~repro.core.annealing.anneal`
        (default the paper's ``"two-neighbor-swing"``; ``"swap"`` pairs with
        ``construction="regular"`` for the Fig. 5 baseline curve).
    construction:
        Starting-point builder: ``"random"`` (default, the paper's proposed
        pipeline) or ``"regular"`` (``m | n`` hosts per switch with a random
        k-regular core).
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`.  Serial restarts
        anneal under it directly; ``jobs > 1`` pool workers anneal under
        private registries whose snapshots are merged into it, so either
        way it accounts for every restart.  One ``"solver.restart"`` event
        per finished restart, in index order, carries the restart's
        :class:`RestartSummary` fields plus ``n``, ``r``, ``m``,
        ``restarts``, the running ``best_h_aspl`` and, when ``seed`` is
        an int, ``seed``.
    checkpointer:
        Optional checkpoint/resume driver (duck-typed; see
        :class:`repro.campaign.checkpoint.PointCheckpointer`).  Needs an
        int attribute ``checkpoint_every`` and methods ``restart_result(i)``
        (a cached :class:`AnnealingResult` or ``None``), ``resume_state(i)``
        (a checkpoint dict or ``None``), ``save_checkpoint(i, state)``, and
        ``restart_done(i, result)``.  Completed restarts are served from
        the cache without annealing; interrupted ones resume
        bit-identically from their last checkpoint.  Restarts run serially
        (``jobs`` must stay 1) — campaign parallelism is across points.

    Notes
    -----
    The trivial regimes are solved exactly without search: ``n <= r`` uses a
    single switch (h-ASPL 2) and ``n <= m(r-m+1)`` for some clique size uses
    the clique construction, both provably optimal (Section 3.2 and the
    Appendix).
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if construction not in _CONSTRUCTIONS:
        raise ValueError(
            f"construction must be one of {_CONSTRUCTIONS}, got {construction!r}"
        )
    if checkpointer is not None and jobs > 1:
        raise ValueError(
            "checkpointer requires jobs=1 (restarts run serially; "
            "parallelise across campaign points instead)"
        )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    d_lb = diameter_lower_bound(n, r)
    a_lb = h_aspl_lower_bound(n, r)

    # Trivial regime 1: everything on one switch.
    if n <= r:
        graph = star_host_switch_graph(n, r)
        aspl, diam = h_aspl_and_diameter(graph)
        return ORPSolution(
            graph=graph,
            n=n,
            r=r,
            m=1,
            h_aspl=aspl,
            diameter=diam,
            h_aspl_lower_bound=a_lb,
            diameter_lower_bound=d_lb,
            moore_bound_at_m=continuous_moore_bound(n, 1, r),
            m_predicted=1,
        )

    # Trivial regime 2: a clique of switches can carry all hosts.
    try:
        clique_m = minimum_clique_switch_count(n, r)
    except ValueError:
        clique_m = None
    if clique_m is not None and m is None:
        graph = clique_host_switch_graph(n, r, clique_m)
        aspl, diam = h_aspl_and_diameter(graph)
        return ORPSolution(
            graph=graph,
            n=n,
            r=r,
            m=clique_m,
            h_aspl=aspl,
            diameter=diam,
            h_aspl_lower_bound=a_lb,
            diameter_lower_bound=d_lb,
            moore_bound_at_m=continuous_moore_bound(n, clique_m, r),
            m_predicted=clique_m,
        )

    m_predicted, _ = optimal_switch_count(n, r)
    m_used = m if m is not None else m_predicted

    children = _restart_seed_sequences(seed, restarts)
    runs: list[AnnealingResult] = []
    summaries: list[RestartSummary] = []
    point = {"n": n, "r": r, "m": m_used, "restarts": restarts}
    if isinstance(seed, int):
        point["seed"] = seed

    def finished(run: AnnealingResult) -> None:
        """Record the next restart and report it as one ``solver.restart``."""
        index = len(runs)
        summary = _restart_summary(index, children[index], run)
        runs.append(run)
        summaries.append(summary)
        if tel.enabled:
            tel.event(
                "solver.restart",
                **point,
                **asdict(summary) | {"seed_spawn_key": list(summary.seed_spawn_key)},
                best_h_aspl=min(s.h_aspl for s in summaries),
            )

    with tel.span("solver.anneal_restarts", n=n, r=r, m=m_used,
                  restarts=restarts, jobs=jobs):
        if jobs > 1 and restarts > 1:
            entry = partial(
                _pool_restart, tel.enabled,
                n, m_used, r, schedule, a_lb, operation, construction,
            )
            with ProcessPoolExecutor(max_workers=min(jobs, restarts)) as pool:
                outcomes = list(pool.map(entry, children, range(restarts)))
            for run, snapshot in outcomes:
                tel.merge(snapshot)
                finished(run)
        else:
            for i, child in enumerate(children):
                run = None if checkpointer is None else checkpointer.restart_result(i)
                if run is None:
                    run = _run_restart(
                        n, m_used, r, schedule, a_lb, operation, construction,
                        child, i, tel, checkpointer,
                    )
                    if checkpointer is not None:
                        checkpointer.restart_done(i, run)
                finished(run)

    # The first restart with the lowest h-ASPL: serial and parallel runs
    # pick the same winner.
    best = min(runs, key=lambda run: run.h_aspl)

    if tel.enabled:
        tel.event(
            "solver.done",
            n=n, r=r, m=m_used, restarts=restarts, jobs=jobs,
            best_h_aspl=best.h_aspl,
            h_aspl_lower_bound=a_lb,
            gap=best.h_aspl / a_lb - 1.0,
        )

    return ORPSolution(
        graph=best.graph,
        n=n,
        r=r,
        m=m_used,
        h_aspl=best.h_aspl,
        diameter=best.diameter,
        h_aspl_lower_bound=a_lb,
        diameter_lower_bound=d_lb,
        moore_bound_at_m=continuous_moore_bound(n, m_used, r),
        m_predicted=m_predicted,
        annealing=best,
        restarts=summaries,
    )
