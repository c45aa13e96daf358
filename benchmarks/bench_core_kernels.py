"""Micro-benchmarks of the library's hot kernels.

Not a paper figure: these time the primitives every experiment is built
on (h-ASPL evaluation, one annealing proposal through the incremental
evaluator and by full recomputation, routing-table construction, one
fluid alltoall, graph bisection) so performance regressions in the substrate are caught
by the benchmark suite itself.

Besides the pytest-benchmark cases, the module is runnable directly to
track the perf trajectory in ``BENCH_pr2.json`` at the repo root::

    python benchmarks/bench_core_kernels.py --quick --out current.json
    repro telemetry regress current.json --baseline BENCH_pr2.json \
        --names bench_h_aspl_1024 bench_anneal_step_1024_incremental

``--quick`` times the gated kernels with ``time.perf_counter`` (seconds,
best of several repeats); ``repro telemetry regress`` fails (exit 1) when
a named kernel regresses more than 1.5x against the committed baseline.
``--kernels`` instead times the bit-packed BFS kernel
(:mod:`repro.core.kernels`) — ``bench_h_aspl_{1024,4096}_bitset`` plus
the n=4096 annealing step both ways — for the ``BENCH_pr7.json``
baseline::

    python benchmarks/bench_core_kernels.py --kernels --out current-pr7.json

``--telemetry-out PATH`` records a ``repro.obs`` JSONL trace of the
restart-fan-out kernel alongside the timing JSON (the gated kernels
themselves always run with telemetry disabled — that *is* the gated
configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

try:
    from benchmarks._common import BENCH_SCHEMA, bench_meta
except ImportError:  # standalone: `python benchmarks/bench_core_kernels.py`
    from _common import BENCH_SCHEMA, bench_meta

from repro.core.annealing import AnnealingSchedule
from repro.core.construct import random_host_switch_graph
from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import IncrementalEvaluator
from repro.core.metrics import h_aspl, h_aspl_and_diameter
from repro.core.operations import SwapMove
from repro.core.solver import solve_orp
from repro.obs import JsonlSink, TelemetryRegistry
from repro.partition import partition_host_switch
from repro.routing import RoutingTables
from repro.simulation.mpi import run_mpi_program

#: The ``--kernels`` graph scales: the paper-scale instance plus the
#: large instance the bit-packed kernels were built for.
KERNEL_SCALES = ((1024, 195, 15), (4096, 734, 16))


def _legal_swap(graph: HostSwitchGraph) -> SwapMove:
    """First legal swap in a deterministic edge scan (for repeatable timing)."""
    edges = [tuple(sorted(e)) for e in graph.switch_edges()]
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            move = SwapMove(a, b, c, d)
            if move.is_legal(graph):
                return move
    raise RuntimeError("graph admits no legal swap")


def _swap_round_trip(move: SwapMove) -> tuple[SwapMove, SwapMove]:
    """``(move, inverse)`` so repeated committed proposals leave the graph
    unchanged: ``SwapMove(a, d, c, b)`` undoes ``SwapMove(a, b, c, d)``."""
    return move, SwapMove(move.a, move.d, move.c, move.b)


@pytest.fixture(scope="module")
def graph_1024():
    return random_host_switch_graph(1024, 195, 15, seed=0)


@pytest.fixture(scope="module")
def graph_256():
    return random_host_switch_graph(256, 55, 12, seed=0)


def bench_h_aspl_1024(graph_1024, benchmark):
    """One SA proposal evaluation at paper scale (n=1024, m=195)."""
    value = benchmark(h_aspl, graph_1024)
    assert value < float("inf")


def bench_h_aspl_and_diameter_256(graph_256, benchmark):
    value = benchmark(h_aspl_and_diameter, graph_256)
    assert value[1] >= value[0]


def bench_anneal_step_1024_incremental(graph_1024, benchmark):
    """One committed annealing proposal (and its undo) via delta repair."""
    work = graph_1024.copy()
    evaluator = IncrementalEvaluator(work)
    move, inverse = _swap_round_trip(_legal_swap(work))

    def step():
        move.apply(work)
        value = evaluator.propose(move)
        evaluator.commit()
        inverse.apply(work)
        evaluator.propose(inverse)
        evaluator.commit()
        return value

    assert benchmark(step) < float("inf")


def bench_anneal_step_1024_full(graph_1024, benchmark):
    """The same committed proposal scored by full APSP recomputation."""
    work = graph_1024.copy()
    move, inverse = _swap_round_trip(_legal_swap(work))

    def step():
        move.apply(work)
        value = h_aspl(work)
        inverse.apply(work)
        h_aspl(work)
        return value

    assert benchmark(step) < float("inf")


def bench_solver_restarts(benchmark):
    """A short multi-restart solve (the restart fan-out's serial baseline)."""

    def kernel():
        return solve_orp(
            128, 8, schedule=AnnealingSchedule(num_steps=300), restarts=2, seed=0
        ).h_aspl

    value = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert value < float("inf")


def bench_routing_tables_1024(graph_1024, benchmark):
    tables = benchmark.pedantic(RoutingTables, args=(graph_1024,), rounds=3, iterations=1)
    assert tables.distance(0, 1) >= 0


def bench_bisection_1024(graph_1024, benchmark):
    def kernel():
        return partition_host_switch(graph_1024, 2, seed=0, trials=1)[1]

    cut = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert cut > 0


def bench_fluid_alltoall_16(graph_256, benchmark):
    """A 16-rank alltoall through the fluid model (the simulator hot path)."""

    def program(mpi):
        yield from mpi.alltoall(65536)

    def kernel():
        return run_mpi_program(graph_256, 16, program).time_s

    t = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert t > 0


# --------------------------------------------------------------------- #
# Standalone runner: machine-readable results for the CI regression gate
# --------------------------------------------------------------------- #


def _best_of(fn, repeat: int = 5) -> float:
    """Best wall-clock seconds over ``repeat`` calls (min filters noise)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _quick_suite(
    telemetry: TelemetryRegistry | None = None,
) -> dict[str, dict[str, float]]:
    """Time the gated kernels plus the restart fan-out (seconds).

    The gated kernels always run untraced (the disabled-telemetry path is
    the configuration the CI gate protects); ``telemetry`` only instruments
    the final restart fan-out so a bench run leaves a solver trace behind.
    """
    graph = random_host_switch_graph(1024, 195, 15, seed=0)
    results: dict[str, dict[str, float]] = {}

    results["bench_h_aspl_1024"] = {"seconds": _best_of(lambda: h_aspl(graph))}

    work = graph.copy()
    evaluator = IncrementalEvaluator(work)
    move, inverse = _swap_round_trip(_legal_swap(work))

    def incremental_step():
        move.apply(work)
        evaluator.propose(move)
        evaluator.commit()
        inverse.apply(work)
        evaluator.propose(inverse)
        evaluator.commit()

    # Each step proposes twice (there and back); report one proposal.
    results["bench_anneal_step_1024_incremental"] = {
        "seconds": _best_of(incremental_step) / 2.0
    }

    full_work = graph.copy()

    def full_step():
        move.apply(full_work)
        h_aspl(full_work)
        inverse.apply(full_work)
        h_aspl(full_work)

    results["bench_anneal_step_1024_full"] = {"seconds": _best_of(full_step) / 2.0}

    def restarts():
        solve_orp(
            128, 8, schedule=AnnealingSchedule(num_steps=300), restarts=2,
            seed=0, telemetry=telemetry,
        )

    results["bench_solver_restarts"] = {"seconds": _best_of(restarts, repeat=3)}
    return results


def _kernel_suite() -> dict[str, dict[str, float]]:
    """Kernel h-ASPL and n=4096 annealing-step timings (seconds).

    The full h-ASPL evaluation is timed at both scales
    (``bench_h_aspl_{n}_bitset``; the suffix keeps the BENCH_pr7.json
    entry names), then one n=4096 annealing step both ways.
    """
    results: dict[str, dict[str, float]] = {}
    graphs: dict[int, HostSwitchGraph] = {}
    for n, m, r in KERNEL_SCALES:
        graph = random_host_switch_graph(n, m, r, seed=0)
        graphs[n] = graph
        # The sub-millisecond kernel needs many repeats for a stable
        # best-of under shared-runner noise.
        repeat = 25 if n == 1024 else 7
        seconds = _best_of(lambda g=graph: h_aspl(g), repeat=repeat)
        results[f"bench_h_aspl_{n}_bitset"] = {"seconds": seconds}

    work = graphs[4096].copy()
    evaluator = IncrementalEvaluator(work)
    move, inverse = _swap_round_trip(_legal_swap(work))

    def incremental_step():
        move.apply(work)
        evaluator.propose(move)
        evaluator.commit()
        inverse.apply(work)
        evaluator.propose(inverse)
        evaluator.commit()

    # Each step proposes twice (there and back); report one proposal.
    results["bench_anneal_step_4096_incremental"] = {
        "seconds": _best_of(incremental_step, repeat=40) / 2.0
    }

    full_work = graphs[4096].copy()

    def full_step():
        move.apply(full_work)
        h_aspl(full_work)
        inverse.apply(full_work)
        h_aspl(full_work)

    results["bench_anneal_step_4096_full"] = {
        "seconds": _best_of(full_step, repeat=3) / 2.0
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--quick", action="store_true",
                      help="gated kernels only (CI mode)")
    mode.add_argument("--kernels", action="store_true",
                      help="BFS kernel timings incl. n=4096 (BENCH_pr7.json)")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument("--telemetry-out", default=None,
                        help="record a repro.obs JSONL trace of the restart "
                             "fan-out kernel to this path")
    parser.add_argument("--timestamp", default=None,
                        help="ISO timestamp recorded in the payload's meta "
                             "block (provenance for repro telemetry regress)")
    args = parser.parse_args(argv)

    if args.kernels:
        results = _kernel_suite()
    else:
        telemetry = None
        if args.telemetry_out:
            telemetry = TelemetryRegistry("bench")
            telemetry.add_sink(JsonlSink(args.telemetry_out))
        try:
            results = _quick_suite(telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
    payload = {
        "schema": BENCH_SCHEMA,
        "meta": bench_meta(args.timestamp),
        "benchmarks": results,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
