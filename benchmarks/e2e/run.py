"""Run one end-to-end workload; the last stdout line is its JSON result.

    python3 benchmarks/e2e/run.py --workload solve-1024 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and uses the program under
``src/`` (never an installed copy).  ``--trace 0`` reports the end-to-end
metrics with no wrapper installed.  ``--trace 1`` runs the workload once
untraced (with half the set-ups) as the overhead reference, then again
with the layer wrappers of ``layers.py``, reports the per-layer metrics
and writes ``trace-<workload>.json`` (into ``.e2e_work/``, or beside
``--record``).  ``--record FILE`` also saves the full run record (metrics,
sample counts, checks, digests) as JSON for ``python -m benchmarks.e2e``.

Exit codes: 0 with a result line, 1 when the workload raised, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / ".e2e_work"


def _use_checkout_source() -> str | None:
    """Import the checkout's ``repro``; an error message when absent."""
    sys.path[0:1] = [str(ROOT), str(SRC)]  # replaces this script's directory
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"repro was imported from {origin}, not from {SRC}"
    return None


def _measure(name: str, seed: int, seconds: float, work: Path) -> dict[str, Any]:
    from benchmarks.e2e.speed import SpeedProbe
    from benchmarks.e2e.workloads import END_TO_END, WORKLOADS, Ctx, end_to_end_metrics

    with SpeedProbe() as probe:
        ctx = Ctx(seed, seconds, work, SRC, probe)
        out = WORKLOADS[name](ctx)
    values = end_to_end_metrics(out)
    return {
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END},
        "attempted": out.attempted,
        "problems": out.problems,
        "details": {**out.details, "samples": len(out.latencies_s), "setups": len(out.setup_s),
                    "timings": ctx.timings(),
                    "probe_kernel_ms": 1e3 * statistics.median(probe.durations)},
    }


def _traced(name: str, seed: int, seconds: float, work: Path) -> dict[str, Any]:
    from benchmarks.e2e import layers
    from benchmarks.e2e.loadgen import percentile
    from benchmarks.e2e.speed import SpeedProbe
    from benchmarks.e2e.tracer import Tracer, merge_rows
    from benchmarks.e2e.workloads import WORKLOADS, Ctx

    workload = WORKLOADS[name]
    with SpeedProbe() as probe:
        base = workload(Ctx(seed, seconds, work, SRC, probe, setups=1))
        tracer = Tracer()
        layers.install(tracer)
        try:
            out = workload(Ctx(seed, seconds, work, SRC, probe, tracer=tracer, setups=1))
        finally:
            tracer.uninstall()
    server = out.details.pop("server_trace", {"rows": [], "counters": {}})
    rows = merge_rows(tracer.row_dicts(), server["rows"])
    counters = dict(tracer.counters.get("run", {}))
    for key, value in server["counters"].get("run", {}).items():
        counters[key] = counters.get(key, 0) + value
    stats = [ev.stats for ev in tracer.objects.get("run", {}).get("evaluators", [])]
    proposals = sum(s["proposals"] for s in stats)
    steps = counters.get("annealing.steps", 0)
    extra = {
        "annealing.accept_ratio": counters.get("annealing.accepted", 0) / steps if steps else 0,
        "incremental.repaired_rows": sum(s["repaired_rows"] for s in stats),
        "incremental.fallback_ratio": (
            sum(s["fallbacks"] for s in stats) / proposals if proposals else 0
        ),
        "trace.overhead_ratio": (
            percentile(out.latencies_s, 50) / percentile(base.latencies_s, 50) - 1.0
        ),
        "trace.attributed_ratio": layers.attributed_ratio(rows),
    }
    details = out.details
    if "queries" in details:
        queries = details["queries"]
        service = layers.layer_totals(rows).get("serve.service", {}).get("incl_s", 0.0)
        extra.update(
            {
                "serve.transport_ms": 1e3 * (details["query_round_trip_s"] - service) / queries,
                "serve.source.index": details["sources"]["index"],
                "serve.source.compose": details["sources"]["compose-predicted"],
                "serve.source.bounds": details["sources"]["bounds"],
                "serve.hit_ratio": details["sources"]["index"] / queries,
                "serve.busy": details["busy"],
                "loadgen.ops": details["ops"],
            }
        )
    values = layers.per_layer_metrics(rows, counters, extra)
    units = {metric: unit for metric, unit, *_ in layers.PER_LAYER}
    return {
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        "attempted": base.attempted + out.attempted,
        "problems": base.problems + out.problems,
        "details": {**details, "samples": len(out.latencies_s), "setups": len(out.setup_s),
                    "untraced_p50_s": percentile(base.latencies_s, 50)},
        "trace": {"workload": name, "seed": seed, "rows": rows, "counters": counters,
                  "metrics": values},
    }


def _report(record: dict[str, Any]) -> None:
    """Human-readable lines ahead of the JSON result line."""
    details = record["details"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace_mode']}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  latency samples: {details.get('samples')}, set-ups: {details.get('setups')}")
    for key in ("query_ms", "write_ms"):
        if key in details:
            print(f"  {key}: {details[key]}")
    print(f"  digest: {details.get('digest')}")
    for problem in record["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-1024", "anneal-4096", "compose-100k", "query-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write the full record here")
    args = parser.parse_args(argv)

    problem = _use_checkout_source()
    if problem is not None:
        print(f"e2e: {problem}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and the server it starts: the speed probe
    # measures the CPU it runs on, and the two vCPUs drift independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still stops its server (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = _traced if args.trace else _measure
    try:
        record = run(args.workload, args.seed, args.seconds, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace_mode=args.trace)
    failed = len(record["problems"])
    record.update(correct=failed == 0, failed=failed)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    if "trace" in record:
        trace_dir = Path(args.record).parent if args.record else WORK
        (trace_dir / f"trace-{args.workload}.json").write_text(
            json.dumps(record["trace"], indent=1) + "\n"
        )
    _report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
