"""The closed registry of telemetry instrument names.

Every instrument name handed to the :mod:`repro.obs` registry —
``counter`` / ``gauge`` / ``timer`` / ``histogram`` / ``span`` /
``event`` — must be a literal drawn from :data:`INSTRUMENTS` (directly,
via a module-level constant, or via a module-level literal dict).  The
``repro-lint`` flow rule REP013 enforces this, which keeps the telemetry
schema closed: run reports from different commits stay diffable, and
``repro.obs.summarize`` can rely on a finite name set.

Adding an instrument is a one-line change here; removing one is a
schema change and should be called out in CHANGES.md.
"""

from __future__ import annotations

__all__ = ["INSTRUMENTS"]

INSTRUMENTS: frozenset[str] = frozenset(
    {
        # repro.core.annealing
        "anneal.accepted",
        "anneal.delta_accepted",
        "anneal.done",
        "anneal.heartbeat",
        "anneal.improved",
        "anneal.moves.swap",
        "anneal.moves.swing",
        "anneal.moves.swing2",
        "anneal.phase",
        "anneal.proposals",
        "anneal.run",
        "anneal.wall_s",
        # repro.core.incremental
        "evaluator.extensions",
        "evaluator.fallbacks",
        "evaluator.proposals",
        "evaluator.repaired_rows",
        "evaluator.repaired_rows_per_move",
        # repro.core.kernels consumer (the dynamic distance matrix)
        "kernel.bfs_rows",
        "kernel.bfs_s",
        # repro.core.solver
        "solver.anneal_restarts",
        "solver.done",
        "solver.restart",
        # repro.partition
        "partition.done",
        "partition.fm_passes",
        "partition.host_switch",
        "partition.trial",
        "partition.trials",
        # repro.simulation
        "sim.done",
        "sim.events_fired",
        "sim.rank_compute_s",
        "sim.rank_recv_wait_s",
        "sim.time_s",
        "sim.wall_s",
        "traffic.done",
        # fault injection (repro.faults / repro.simulation.network)
        "faults.apply",
        "faults.dropped",
        "faults.injected",
        "faults.repaired",
        "faults.reroutes",
        # repro.analysis
        "resilience.sweep",
        "resilience.sweep.done",
        # repro.campaign
        "campaign.done",
        "campaign.heartbeat",
        "campaign.point",
        "campaign.progress",
        # repro.compose
        "compose.block_cached",
        "compose.block_solved",
        "compose.build",
        "compose.done",
        # repro.serve
        "serve.drain",
        "serve.hit",
        "serve.miss",
        "serve.query_s",
        "serve.refine.done",
        "serve.refine.failed",
        "serve.refine.start",
        "serve.request",
        "serve.start",
        "serve.stop",
        # repro.obs internals
        "obs.events_dropped",
    }
)
