"""The program's hot-path layers, as the traced run sees them.

:func:`install` wraps each layer's public entry points where their callers
look them up (see :mod:`benchmarks.e2e.tracer`); :data:`PER_LAYER` names
the per-layer metrics derived from the resulting rows, with the
end-to-end metric each one should move recorded in the README.

A metric ending in ``.s`` is the layer's *self* seconds (time not covered
by a traced child layer), so the per-layer seconds of a run add up to its
wall time.  ``serve.service.s`` is the exception: it is the inclusive time
of ``TopologyService.query`` inside the server, which the transport share
is computed against.
"""

from __future__ import annotations

from typing import Any

from benchmarks.e2e.tracer import ROOT_PARENT, Tracer

__all__ = [
    "PER_LAYER",
    "ROOT_PHASES",
    "attributed_ratio",
    "install",
    "layer_totals",
    "per_layer_metrics",
]

ROOT_PHASES = ("setup", "run")


def _anneal_counts(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("annealing.accepted", result.accepted)
    tracer.count("annealing.steps", result.steps)


def _keep_evaluator(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.keep("evaluators", args[0])


def _bfs_sources(self: Any, csr: Any, sources: Any, targets: Any = None) -> int:
    return len(sources)


def install(tracer: Tracer) -> None:
    """Wrap every benchmarked layer (see the README's layer table)."""
    import repro.campaign.executor as executor
    import repro.compose.fabric as fabric
    import repro.compose.predict as predict
    import repro.core.annealing as annealing
    import repro.core.construct as construct
    import repro.core.metrics as metrics
    import repro.core.solver as solver
    import repro.utils.contracts as contracts
    from repro.campaign.store import CampaignStore
    from repro.core.hostswitch import HostSwitchGraph
    from repro.core.incremental import IncrementalEvaluator
    from repro.core.kernels.bitset_backend import BitsetBackend
    from repro.core.kernels.csr import CSRAdjacency
    from repro.core.kernels.python_backend import PythonBackend
    from repro.core.operations import SwapMove, SwingMove
    from repro.serve.service import TopologyService

    wrap = tracer.wrap
    for caller in (annealing, solver):
        wrap(caller, "anneal", "annealing.anneal", on_return=_anneal_counts)
    for name in ("propose_swap", "propose_swing"):
        wrap(annealing, name, "operations.moves")
    for cls in (SwapMove, SwingMove):
        for name in ("is_legal", "apply", "undo"):
            wrap(cls, name, "operations.moves")
    wrap(IncrementalEvaluator, "__init__", "incremental.init", on_return=_keep_evaluator)
    for name in ("propose", "commit", "rollback"):
        wrap(IncrementalEvaluator, name, f"incremental.{name}")
    for cls in (BitsetBackend, PythonBackend):
        wrap(cls, "bfs_distances", "kernels.bfs", units=_bfs_sources)
    for name in ("with_edge_removed", "with_edge_added"):
        wrap(CSRAdjacency, name, "kernels.csr_copy")
    wrap(HostSwitchGraph, "is_switch_graph_connected", "hostswitch.connected")
    wrap(HostSwitchGraph, "copy", "hostswitch.copy")
    wrap(HostSwitchGraph, "validate", "hostswitch.validate")
    for name in (
        "add_switch_edge", "remove_switch_edge", "attach_host", "move_host", "move_any_host",
    ):
        # Hundreds of thousands per compose build: counted, not timed, so
        # their cost stays in the caller's self time instead of doubling it.
        tracer.wrap_count(HostSwitchGraph, name, "hostswitch.mutations")
    tracer.wrap_count(contracts, "contracts_level", "contracts.checks")
    for caller in (construct, solver):
        wrap(caller, "random_host_switch_graph", "construct.random_graph")
    for caller in (annealing, solver, metrics):
        wrap(caller, "h_aspl_and_diameter", "metrics.final_eval")
    wrap(executor, "run_campaign", "campaign.run")
    for name, layer in (
        ("save_checkpoint", "store.checkpoint"),
        ("save_result", "store.save_result"),
        ("index_entries", "store.index_read"),
        ("verify_entry", "store.verify"),
        ("load_result", "store.load_result"),
    ):
        wrap(CampaignStore, name, layer)
    wrap(fabric, "build_fabric", "compose.build")
    wrap(fabric, "compose_blocks", "compose.glue")
    wrap(fabric, "resolve_block", "compose.resolve_block")
    for caller in (fabric, predict):
        wrap(caller, "summarize_block", "compose.summarize")
    wrap(TopologyService, "query", "serve.service")


#: (metric, unit, better, field, source, phase).  ``field`` is a row total
#: (``calls``, ``self_s``, ``incl_s``, ``units``) of layer ``source``,
#: ``counter`` for a traced count, or ``extra`` for a value the run
#: computed itself.  Most metrics cover the timed ``run`` phase; the
#: ``setup.`` ones cover set-up, where work moved out of the run would go.
PER_LAYER: list[tuple[str, str, str, str, str, str]] = [
    ("annealing.anneal.self_s", "s", "lower", "self_s", "annealing.anneal", "run"),
    ("annealing.accept_ratio", "ratio", "higher", "extra", "annealing.accept_ratio", "run"),
    ("operations.moves.calls", "count", "lower", "calls", "operations.moves", "run"),
    ("operations.moves.s", "s", "lower", "self_s", "operations.moves", "run"),
    ("incremental.propose.calls", "count", "lower", "calls", "incremental.propose", "run"),
    ("incremental.propose.self_s", "s", "lower", "self_s", "incremental.propose", "run"),
    ("incremental.commit.s", "s", "lower", "self_s", "incremental.commit", "run"),
    ("incremental.rollback.s", "s", "lower", "self_s", "incremental.rollback", "run"),
    ("incremental.repaired_rows", "rows", "lower", "extra", "incremental.repaired_rows", "run"),
    ("incremental.fallback_ratio", "ratio", "lower", "extra", "incremental.fallback_ratio",
     "run"),
    ("kernels.bfs.calls", "count", "lower", "calls", "kernels.bfs", "run"),
    ("kernels.bfs.sources", "count", "lower", "units", "kernels.bfs", "run"),
    ("kernels.bfs.s", "s", "lower", "self_s", "kernels.bfs", "run"),
    ("kernels.csr_copy.calls", "count", "lower", "calls", "kernels.csr_copy", "run"),
    ("kernels.csr_copy.s", "s", "lower", "self_s", "kernels.csr_copy", "run"),
    ("hostswitch.connected.calls", "count", "lower", "calls", "hostswitch.connected", "run"),
    ("hostswitch.connected.s", "s", "lower", "self_s", "hostswitch.connected", "run"),
    ("hostswitch.copy.calls", "count", "lower", "calls", "hostswitch.copy", "run"),
    ("hostswitch.copy.s", "s", "lower", "self_s", "hostswitch.copy", "run"),
    ("hostswitch.mutations.calls", "count", "lower", "counter", "hostswitch.mutations", "run"),
    ("hostswitch.validate.s", "s", "lower", "self_s", "hostswitch.validate", "run"),
    ("contracts.checks.calls", "count", "lower", "counter", "contracts.checks", "run"),
    ("construct.random_graph.s", "s", "lower", "self_s", "construct.random_graph", "run"),
    ("metrics.final_eval.s", "s", "lower", "self_s", "metrics.final_eval", "run"),
    ("campaign.run.self_s", "s", "lower", "self_s", "campaign.run", "run"),
    ("store.checkpoint.calls", "count", "lower", "calls", "store.checkpoint", "run"),
    ("store.checkpoint.s", "s", "lower", "self_s", "store.checkpoint", "run"),
    ("store.save_result.s", "s", "lower", "self_s", "store.save_result", "run"),
    ("store.index_read.calls", "count", "lower", "calls", "store.index_read", "run"),
    ("store.index_read.s", "s", "lower", "self_s", "store.index_read", "run"),
    ("store.verify.calls", "count", "lower", "calls", "store.verify", "run"),
    ("store.verify.s", "s", "lower", "self_s", "store.verify", "run"),
    ("store.load_result.s", "s", "lower", "self_s", "store.load_result", "run"),
    ("compose.build.self_s", "s", "lower", "self_s", "compose.build", "run"),
    ("compose.glue.s", "s", "lower", "self_s", "compose.glue", "run"),
    ("compose.summarize.calls", "count", "lower", "calls", "compose.summarize", "run"),
    ("compose.summarize.s", "s", "lower", "self_s", "compose.summarize", "run"),
    ("compose.resolve_block.s", "s", "lower", "self_s", "compose.resolve_block", "run"),
    ("serve.service.s", "s", "lower", "incl_s", "serve.service", "run"),
    ("serve.transport_ms", "ms", "lower", "extra", "serve.transport_ms", "run"),
    ("serve.source.index", "count", "higher", "extra", "serve.source.index", "run"),
    ("serve.source.compose", "count", "higher", "extra", "serve.source.compose", "run"),
    ("serve.source.bounds", "count", "lower", "extra", "serve.source.bounds", "run"),
    ("serve.hit_ratio", "ratio", "higher", "extra", "serve.hit_ratio", "run"),
    ("serve.busy", "count", "lower", "extra", "serve.busy", "run"),
    ("loadgen.ops", "count", "higher", "extra", "loadgen.ops", "run"),
    ("trace.overhead_ratio", "ratio", "lower", "extra", "trace.overhead_ratio", "run"),
    ("trace.attributed_ratio", "ratio", "higher", "extra", "trace.attributed_ratio", "run"),
    ("setup.construct.random_graph.s", "s", "lower", "self_s", "construct.random_graph",
     "setup"),
    ("setup.annealing.anneal.self_s", "s", "lower", "self_s", "annealing.anneal", "setup"),
    ("setup.store.save_result.s", "s", "lower", "self_s", "store.save_result", "setup"),
]


def layer_totals(rows: list[dict[str, Any]], phase: str = "run") -> dict[str, dict[str, float]]:
    """Per-layer sums over every parent within ``phase`` (root span excluded)."""
    totals: dict[str, dict[str, float]] = {}
    for row in rows:
        if row["phase"] != phase or row["parent"] == ROOT_PARENT and row["layer"] == phase:
            continue
        into = totals.setdefault(
            row["layer"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0}
        )
        for field in into:
            into[field] += row[field]
    return totals


def attributed_ratio(rows: list[dict[str, Any]], phase: str = "run") -> float:
    """Share of the ``phase`` root span's time covered by layer spans."""
    root = [r for r in rows if r["layer"] == phase and r["parent"] == ROOT_PARENT]
    incl = sum(r["incl_s"] for r in root)
    own = sum(r["self_s"] for r in root)
    return 1.0 - own / incl if incl > 0 else 0.0


def per_layer_metrics(
    rows: list[dict[str, Any]],
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where the layer did not run).

    ``counters`` are the run phase's traced counts.
    """
    totals = {phase: layer_totals(rows, phase) for phase in ROOT_PHASES}
    values: dict[str, float] = {}
    for name, _unit, _better, field, source, phase in PER_LAYER:
        if field == "extra":
            values[name] = extra.get(source, 0)
        elif field == "counter":
            values[name] = counters.get(source, 0)
        else:
            values[name] = totals[phase].get(source, {}).get(field, 0)
    return values
