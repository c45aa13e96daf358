"""Unit tests of the benchmark harness itself (no program runs).

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import threading
import types
from pathlib import Path

import pytest

from benchmarks.e2e.compare import classify, compare
from benchmarks.e2e.layers import PER_LAYER, attributed_ratio, layer_totals
from benchmarks.e2e.loadgen import closed_loop, percentile, tail
from benchmarks.e2e.speed import REFERENCE_S, SpeedProbe
from benchmarks.e2e.tracer import Tracer, merge_rows
from benchmarks.e2e.workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _nested(clock: FakeClock) -> types.SimpleNamespace:
    ns = types.SimpleNamespace()

    def leaf() -> None:
        clock.advance(2)

    def mid() -> None:
        clock.advance(1)
        ns.leaf()
        ns.leaf()
        clock.advance(3)

    def top() -> None:
        ns.mid()
        clock.advance(5)

    ns.leaf, ns.mid, ns.top = leaf, mid, top
    return ns


def test_self_times_of_nested_spans_sum_to_the_root() -> None:
    clock = FakeClock()
    ns = _nested(clock)
    original = ns.top
    tracer = Tracer(clock=clock)
    for name in ("leaf", "mid", "top"):
        tracer.wrap(ns, name, name)
    ns.top()
    assert tracer.row_dicts() == []  # outside a phase nothing is recorded
    with tracer.phase("run"):
        ns.top()
        clock.advance(1)
    rows = tracer.row_dicts()
    by = {(r["layer"], r["parent"]): r for r in rows}
    assert by[("run", "-")]["incl_s"] == 14
    assert sum(r["self_s"] for r in rows) == by[("run", "-")]["incl_s"]
    assert by[("leaf", "mid")]["calls"] == 2
    assert by[("leaf", "mid")]["self_s"] == 4
    assert by[("mid", "top")]["self_s"] == 4
    assert by[("mid", "top")]["incl_s"] == 8
    assert by[("top", "run")]["self_s"] == 5
    assert layer_totals(rows) == {
        "leaf": {"calls": 2, "incl_s": 4, "self_s": 4, "units": 0},
        "mid": {"calls": 1, "incl_s": 8, "self_s": 4, "units": 0},
        "top": {"calls": 1, "incl_s": 13, "self_s": 5, "units": 0},
    }
    assert attributed_ratio(rows) == pytest.approx(13 / 14)
    tracer.uninstall()
    assert ns.top is original


def test_rows_merge_across_processes_and_counts_across_threads() -> None:
    clock = FakeClock()
    ns = _nested(clock)
    tracer = Tracer(clock=clock, default_phase="run")
    tracer.wrap(ns, "mid", "mid")
    tracer.wrap_count(ns, "leaf", "leaves")
    workers = [threading.Thread(target=ns.mid) for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert tracer.counters == {"run": {"leaves": 6}}
    rows = tracer.row_dicts()
    merged = merge_rows(rows, rows)
    assert [(r["layer"], r["parent"], r["calls"]) for r in merged] == [("mid", "-", 6)]


def test_compare_rule() -> None:
    ref = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert classify(ref, [10.2, 10.1, 10.3, 10.2, 10.25], 0.10, "lower") == "ok"
    assert classify(ref, [12.0, 12.1, 11.9, 12.0, 12.05], 0.10, "lower") == "regressed"
    assert classify(ref, [8.0, 8.1, 7.9, 8.0, 8.05], 0.10, "higher") == "regressed"
    # Spread wider than the bound: unresolved, not "unchanged"...
    assert classify(ref, [5.0, 15.0, 10.0, 20.0, 8.0], 0.10, "lower") == "unresolved"
    # ...unless every candidate run beats every reference run.
    assert classify(ref, [5.0, 5.5, 6.0, 7.5, 8.0], 0.10, "lower") == "ok"


BENCH = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "h_aspl", "unit": "hops", "better": "lower", "bound": 0.01},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}


def _set(seed: int, h: float = 4.5, failed: int = 0) -> dict:
    """A set file of three identical query-mixed runs."""
    run = {
        "workload": "query-mixed",
        "metrics": {
            name: {"value": value}
            for name, value in (("run_s", 1.0), ("h_aspl", h), ("p50_ms", 1.0), ("tail_ms", 1.0))
        },
        "attempted": 100,
        "failed": failed,
        "seed": seed,
        "details": {"digest": "d"},
    }
    return {"seed": seed, "runs": [run] * 3}


def _verdicts(cand: dict) -> dict[str, str]:
    rows, _ = compare(_set(0), cand, BENCH)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_judges_h_aspl_exactly_and_failures() -> None:
    same = _verdicts(_set(0))
    assert set(same) == {"run_s", "h_aspl", "p50_ms", "tail_ms", "failed_ratio"}
    assert set(same.values()) == {"ok"}
    # One seed: any h-ASPL increase regresses, however small.
    assert _verdicts(_set(0, h=4.5001))["h_aspl"] == "regressed"
    # Another seed: BENCHMARK.json's bound covers the spread between seeds.
    assert _verdicts(_set(1, h=4.5001))["h_aspl"] == "ok"
    assert _verdicts(_set(0, failed=1))["failed_ratio"] == "regressed"


def test_closed_loop_times_each_request_from_its_send() -> None:
    clock = FakeClock()
    # Requests take 30 ms each; the probe's 5 ms between them is not timed.
    sent = closed_loop(
        [0.03] * 4, clock.advance, between=lambda: clock.advance(0.005), clock=clock
    )
    assert [s.start for s in sent] == pytest.approx([0.005, 0.04, 0.075, 0.11])
    assert [s.latency_s for s in sent] == pytest.approx([0.03] * 4)
    assert sent[-1].end == pytest.approx(0.14)


def test_probe_correction_scales_and_removes_its_own_time() -> None:
    probe = SpeedProbe()
    # The host runs at half the reference speed; two samples fall inside.
    probe.starts = [0.0, 0.5, 1.0, 5.0]
    probe.durations = [2 * REFERENCE_S] * 4
    assert probe.own_time(0.4, 1.4) == pytest.approx(4 * REFERENCE_S)
    assert probe.corrected(0.4, 1.4) == pytest.approx((1.0 - 4 * REFERENCE_S) / 2)
    # Far from every sample, the nearest one sets the speed.
    assert probe.kernel_time(20.0, 21.0) == pytest.approx(2 * REFERENCE_S)


def test_percentile_is_nearest_rank() -> None:
    values = list(range(1, 2001))
    assert percentile(values, 99) == 1980  # 20 samples lie beyond it
    assert percentile(values, 50) == 1000
    assert percentile([7.0], 99) == 7.0


def test_tail_keeps_ten_samples_beyond_it() -> None:
    assert tail(list(range(1, 2001))) == (1900, 95.0)
    assert tail(list(range(1, 201))) == (190, 95.0)
    assert tail(list(range(1, 101))) == (90, 90.0)
    assert tail([3.0, 1.0, 2.0, 9.0, 5.0, 4.0, 8.0]) == (4.0, 400 / 7)  # the median
    assert tail([7.0]) == (7.0, 100.0)


def test_benchmark_json_matches_the_harness() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
