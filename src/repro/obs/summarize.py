"""Turn a telemetry event stream back into a human-readable run report.

:func:`load_jsonl` reads a ``--telemetry-out`` trace (tolerating and
reporting malformed lines); :func:`summarize_events` renders the report
the CLI prints for ``repro telemetry summarize PATH``: search statistics
(acceptance rate, proposals/sec), evaluator repair behaviour, per-restart
summaries, simulation time breakdowns, and a span/metric digest.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.report import format_table
from repro.obs.schema import validate_event

__all__ = ["load_jsonl", "scan_jsonl", "summarize_events"]


def scan_jsonl(path: str | Path) -> tuple[list[dict[str, Any]], list[tuple[int, str]]]:
    """Parse a JSONL trace; returns ``(records, problems)``.

    ``problems`` collects unparseable lines and schema violations as
    ``(lineno, message)`` pairs so callers can group and count per line;
    valid records are returned regardless so a partially corrupt trace
    still summarizes.
    """
    records: list[dict[str, Any]] = []
    problems: list[tuple[int, str]] = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append((lineno, f"invalid JSON ({exc.msg})"))
                continue
            issues = validate_event(obj)
            if issues:
                problems.extend((lineno, p) for p in issues)
            else:
                records.append(obj)
    return records, problems


def load_jsonl(path: str | Path) -> tuple[list[dict[str, Any]], list[str]]:
    """:func:`scan_jsonl` with problems flattened to ``"line N: ..."``."""
    records, problems = scan_jsonl(path)
    return records, [f"line {lineno}: {message}" for lineno, message in problems]


def _final_metrics(events: list[dict[str, Any]]) -> dict[tuple[str, str], dict[str, Any]]:
    """Last record per (kind, name) for metric kinds (final flush wins)."""
    out: dict[tuple[str, str], dict[str, Any]] = {}
    for ev in events:
        if ev.get("kind") in ("counter", "gauge", "timer", "histogram"):
            out[(ev["kind"], ev["name"])] = ev
    return out


def _counter(metrics: dict, name: str) -> int | None:
    ev = metrics.get(("counter", name))
    return None if ev is None else int(ev["value"])


def _timer_total(metrics: dict, name: str) -> float | None:
    ev = metrics.get(("timer", name))
    return None if ev is None else float(ev["total_s"])


def _anneal_section(metrics: dict) -> list[str]:
    proposals = _counter(metrics, "anneal.proposals")
    if not proposals:
        return []
    accepted = _counter(metrics, "anneal.accepted") or 0
    improved = _counter(metrics, "anneal.improved") or 0
    wall = _timer_total(metrics, "anneal.wall_s")
    rows: list[list[Any]] = [
        ["proposals", proposals],
        ["accepted", accepted],
        ["acceptance rate", f"{accepted / proposals:.3f}"],
        ["improved (new best)", improved],
    ]
    if wall:
        rows.append(["wall time (s)", f"{wall:.3f}"])
        rows.append(["proposals/sec", f"{proposals / wall:.0f}"])
    for kind in ("swap", "swing", "swing2"):
        count = _counter(metrics, f"anneal.moves.{kind}")
        if count:
            rows.append([f"committed {kind} moves", count])
    return [format_table(["annealing", "value"], rows), ""]


def _evaluator_section(metrics: dict) -> list[str]:
    proposals = _counter(metrics, "evaluator.proposals")
    if not proposals:
        return []
    repaired = _counter(metrics, "evaluator.repaired_rows") or 0
    rows: list[list[Any]] = [
        ["proposals scored", proposals],
        ["rows repaired", repaired],
        ["rows repaired / move", f"{repaired / proposals:.2f}"],
        ["fallback rebuilds", _counter(metrics, "evaluator.fallbacks") or 0],
    ]
    return [format_table(["evaluator repair", "value"], rows), ""]


def _restart_section(events: list[dict[str, Any]]) -> list[str]:
    restarts = [ev for ev in events
                if ev.get("kind") == "event" and ev.get("name") == "solver.restart"]
    if not restarts:
        return []
    rows = []
    for ev in sorted(restarts, key=lambda e: e["fields"].get("index", 0)):
        f = ev["fields"]
        rows.append([
            f.get("index"),
            f"{f.get('initial_h_aspl', float('nan')):.4f}",
            f"{f.get('h_aspl', float('nan')):.4f}",
            f.get("accepted"),
            f.get("rejected"),
            f"{f.get('wall_time_s', 0.0):.2f}",
        ])
    table = format_table(
        ["restart", "initial h-ASPL", "best h-ASPL", "accepted", "rejected", "wall s"],
        rows,
        title="per-restart summaries",
    )
    return [table, ""]


def _simulation_section(metrics: dict) -> list[str]:
    events_fired = _counter(metrics, "sim.events_fired")
    if not events_fired:
        return []
    rows: list[list[Any]] = [["events fired", events_fired]]
    sim_time = metrics.get(("gauge", "sim.time_s"))
    wall = _timer_total(metrics, "sim.wall_s")
    if sim_time is not None:
        rows.append(["simulated time (s)", f"{float(sim_time['value']):.6f}"])
    if wall:
        rows.append(["kernel wall time (s)", f"{wall:.3f}"])
        rows.append(["events/sec (wall)", f"{events_fired / wall:.0f}"])
    for name, label in (
        ("sim.rank_compute_s", "rank compute (s, total)"),
        ("sim.rank_recv_wait_s", "rank recv-wait (s, total)"),
    ):
        total = _timer_total(metrics, name)
        if total is not None:
            rows.append([label, f"{total:.6f}"])
    return [format_table(["simulation", "value"], rows), ""]


def _partition_section(metrics: dict, events: list[dict[str, Any]]) -> list[str]:
    trials = _counter(metrics, "partition.trials")
    if not trials:
        return []
    rows: list[list[Any]] = [
        ["trials", trials],
        ["FM refinement passes", _counter(metrics, "partition.fm_passes") or 0],
    ]
    cuts = [ev["fields"].get("cut") for ev in events
            if ev.get("kind") == "event" and ev.get("name") == "partition.trial"]
    if cuts:
        rows.append(["edge-cut trajectory", " -> ".join(str(c) for c in cuts)])
        rows.append(["best cut", min(c for c in cuts if c is not None)])
    return [format_table(["partition", "value"], rows), ""]


def _span_section(events: list[dict[str, Any]]) -> list[str]:
    spans: dict[str, list[float]] = {}
    for ev in events:
        if ev.get("kind") == "span":
            spans.setdefault(ev["name"], []).append(float(ev["duration_s"]))
    if not spans:
        return []
    rows = [
        [name, len(ds), f"{sum(ds):.3f}", f"{max(ds):.3f}"]
        for name, ds in sorted(spans.items(), key=lambda kv: -sum(kv[1]))
    ]
    return [format_table(["span", "count", "total s", "max s"], rows), ""]


def summarize_events(events: list[dict[str, Any]]) -> str:
    """Render the full report for a list of schema-valid records."""
    metrics = _final_metrics(events)
    sections: list[str] = [f"telemetry summary: {len(events)} records", ""]
    dropped = _counter(metrics, "obs.events_dropped")
    if dropped:
        # Front and center, not buried with ordinary counters: a trace
        # that overflowed the event buffer undercounts everything below.
        sections.insert(1, f"WARNING: {dropped} event(s) dropped (event buffer "
                           "overflow) — counts below are incomplete")
    sections += _anneal_section(metrics)
    sections += _evaluator_section(metrics)
    sections += _restart_section(events)
    sections += _simulation_section(metrics)
    sections += _partition_section(metrics, events)
    sections += _span_section(events)
    if len(sections) == 2:
        sections.append("(no recognised instrumentation in this trace)")
    return "\n".join(sections).rstrip("\n")
