"""Perf-regression tracking over the BENCH_*.json trajectory.

The repo's CI gate used to be a single-file tolerance check buried in
``benchmarks/bench_core_kernels.py``; this module makes regression
detection a first-class subsystem:

- :func:`load_bench` reads a benchmark payload tolerating both the
  original schema-1 shape (``{"schema": 1, "benchmarks": ...}``) and the
  schema-2 shape that adds a ``meta`` provenance block (git commit,
  timestamp, scale — see ``benchmarks._common.bench_meta``);
- :class:`PerfHistory` is a small append-only JSON store of past runs
  keyed by commit/date, so the baseline can *roll*: with enough history
  the expected value for a kernel is the median of its recent runs —
  robust to one noisy CI run in a way a single committed file is not;
- :func:`ingest_trace_timers` lifts timer snapshots out of a
  ``repro.obs/v1`` trace as ``timer.<name>`` pseudo-benchmarks (mean
  seconds per call), so traced kernels feed the same gate;
- :func:`detect_regressions` compares a current run against the rolling
  baseline (falling back to a committed baseline file when history is
  thin) with a noise-tolerant threshold, and powers
  ``repro telemetry regress`` — the CLI the CI bench gate calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BenchCheck",
    "PerfHistory",
    "load_bench",
    "ingest_trace_timers",
    "detect_regressions",
    "format_checks",
]

PERF_HISTORY_FORMAT = "repro.perf-history/v1"

#: Default regression threshold: same 1.5x the old single-file gate used,
#: applied against a median-of-history baseline when history is deep
#: enough, which tolerates one-off CI noise without loosening the bar.
DEFAULT_TOLERANCE = 1.5
DEFAULT_WINDOW = 5
DEFAULT_MIN_HISTORY = 3


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read a BENCH_*.json payload; returns ``{"benchmarks", "meta"}``.

    ``benchmarks`` maps name to seconds (floats).  Schema 1 has no meta
    block; schema 2 adds one — both load identically, extra top-level keys
    (``solve_1024_15`` etc.) are ignored.
    """
    with Path(path).open(encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValueError(f"{path}: not a benchmark payload (no 'benchmarks' key)")
    benchmarks = {
        name: float(entry["seconds"])
        for name, entry in payload["benchmarks"].items()
        if isinstance(entry, dict) and "seconds" in entry
    }
    meta = payload.get("meta")
    return {"benchmarks": benchmarks, "meta": dict(meta) if isinstance(meta, dict) else {}}


def ingest_trace_timers(records: list[dict[str, Any]]) -> dict[str, float]:
    """``timer.<name> -> mean seconds per call`` from trace timer records.

    The last flushed record per timer wins (flushes are cumulative), so a
    trace summarised after ``TelemetryRegistry.close()`` reflects the
    whole run.
    """
    latest: dict[str, dict[str, Any]] = {}
    for rec in records:
        if rec.get("kind") == "timer":
            latest[rec["name"]] = rec
    out: dict[str, float] = {}
    for name, rec in latest.items():
        count = int(rec.get("count", 0))
        if count > 0:
            out[f"timer.{name}"] = float(rec["total_s"]) / count
    return out


class PerfHistory:
    """Append-only perf-history store: one JSON document of past runs.

    Entries carry ``{commit, timestamp, source, benchmarks}``; writes go
    through temp-file + ``os.replace`` so a crashed CI job never leaves a
    torn store.  The store is deliberately flat — a few hundred runs is a
    small file, and pruning is the caller's policy (``max_entries``).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: list[dict[str, Any]] = []
        if self.path.exists():
            payload = json.loads(self.path.read_text())
            if payload.get("format") != PERF_HISTORY_FORMAT:
                raise ValueError(
                    f"{path}: unsupported perf-history format "
                    f"{payload.get('format')!r}"
                )
            self.entries = list(payload.get("entries", []))

    def record(
        self,
        benchmarks: dict[str, float],
        *,
        commit: str | None = None,
        timestamp: str | None = None,
        source: str | None = None,
        max_entries: int = 200,
    ) -> None:
        """Append one run and persist (oldest entries pruned past the cap)."""
        self.entries.append(
            {
                "commit": commit,
                "timestamp": timestamp,
                "source": source,
                "benchmarks": {k: float(v) for k, v in benchmarks.items()},
            }
        )
        self.entries = self.entries[-max_entries:]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {"format": PERF_HISTORY_FORMAT, "entries": self.entries},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        os.replace(tmp, self.path)

    def recent(self, name: str, window: int = DEFAULT_WINDOW) -> list[float]:
        """The last ``window`` recorded values for ``name``, oldest first."""
        values = [
            float(e["benchmarks"][name])
            for e in self.entries
            if name in e.get("benchmarks", {})
        ]
        return values[-window:]


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class BenchCheck:
    """Verdict for one gated benchmark."""

    name: str
    current_s: float | None
    baseline_s: float | None
    ratio: float | None
    regressed: bool
    source: str
    """Where the baseline came from: ``history-median(k)``,
    ``baseline-file``, or ``missing``."""


def detect_regressions(
    current: dict[str, float],
    baseline: dict[str, float] | None,
    *,
    names: list[str] | None = None,
    history: PerfHistory | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> list[BenchCheck]:
    """Compare ``current`` against the rolling baseline, one check per name.

    For each gated name the expected value is the *median* of the last
    ``window`` history entries when at least ``min_history`` exist
    (noise-tolerant: a single slow CI run cannot move the median), else
    the committed ``baseline`` value.  A name missing from both sides is
    reported as regressed with ``source="missing"`` — a silently vanished
    gate is itself a failure.
    """
    if names is None:
        names = sorted(baseline) if baseline else sorted(current)
    checks: list[BenchCheck] = []
    for name in names:
        now = current.get(name)
        expected: float | None = None
        source = "missing"
        if history is not None:
            recent = history.recent(name, window)
            if len(recent) >= min_history:
                expected = _median(recent)
                source = f"history-median({len(recent)})"
        if expected is None and baseline is not None and name in baseline:
            expected = baseline[name]
            source = "baseline-file"
        if now is None or expected is None or expected <= 0:
            checks.append(
                BenchCheck(
                    name=name,
                    current_s=now,
                    baseline_s=expected,
                    ratio=None,
                    regressed=True,
                    source="missing",
                )
            )
            continue
        ratio = now / expected
        checks.append(
            BenchCheck(
                name=name,
                current_s=now,
                baseline_s=expected,
                ratio=ratio,
                regressed=ratio > tolerance,
                source=source,
            )
        )
    return checks


def format_checks(checks: list[BenchCheck], tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Render the gate report (one line per check, regressions flagged)."""
    lines = []
    for c in checks:
        if c.ratio is None:
            lines.append(
                f"{c.name}: missing from "
                + ("current run" if c.current_s is None else "baseline and history")
                + " FAIL"
            )
            continue
        status = "FAIL" if c.regressed else "ok"
        lines.append(
            f"{c.name}: {c.current_s * 1e3:.3f} ms vs {c.source} "
            f"{c.baseline_s * 1e3:.3f} ms ({c.ratio:.2f}x, tolerance "
            f"{tolerance}x) {status}"
        )
    regressed = [c.name for c in checks if c.regressed]
    lines.append(
        f"regression gate: {len(regressed)}/{len(checks)} check(s) failed"
        + (f" ({', '.join(regressed)})" if regressed else "")
    )
    return "\n".join(lines)
