"""The perf-regression gate over BENCH_*.json runs.

``repro telemetry regress CURRENT --baseline BASELINE`` — the CLI the CI
bench gate calls — compares one benchmark run against one committed
baseline file:

- :func:`load_bench` reads a benchmark payload tolerating both the
  original schema-1 shape (``{"schema": 1, "benchmarks": ...}``) and the
  schema-2 shape that adds a ``meta`` provenance block (git commit,
  timestamp, scale — see ``benchmarks._common.bench_meta``);
- :func:`detect_regressions` checks each gated name against the baseline
  with a noise-tolerant ratio threshold, and :func:`format_checks`
  renders the verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BenchCheck",
    "load_bench",
    "detect_regressions",
    "format_checks",
]

#: Default regression threshold: a gated kernel may take up to 1.5x its
#: baseline time, which absorbs shared-runner noise.
DEFAULT_TOLERANCE = 1.5


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


@dataclass(frozen=True)
class BenchCheck:
    """Verdict for one gated benchmark; ``ratio`` is ``None`` when the
    name is missing from the current run or the baseline."""

    name: str
    current_s: float | None
    baseline_s: float | None
    ratio: float | None
    regressed: bool


def detect_regressions(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    names: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[BenchCheck]:
    """Compare ``current`` against ``baseline``, one check per gated name.

    ``names`` defaults to every name in the baseline (in the current run
    when the baseline is empty).  A name missing from either side is
    reported as regressed — a silently vanished gate is itself a failure.
    """
    checks: list[BenchCheck] = []
    for name in sorted(baseline or current) if names is None else names:
        now = current.get(name)
        expected = baseline.get(name)
        if now is None or expected is None or expected <= 0:
            checks.append(BenchCheck(name, now, expected, None, regressed=True))
            continue
        ratio = now / expected
        checks.append(BenchCheck(name, now, expected, ratio, regressed=ratio > tolerance))
    return checks


def format_checks(checks: list[BenchCheck], tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Render the gate report (one line per check, regressions flagged)."""
    lines = []
    for c in checks:
        if c.ratio is None:
            lines.append(
                f"{c.name}: missing from "
                + ("current run" if c.current_s is None else "baseline")
                + " FAIL"
            )
            continue
        status = "FAIL" if c.regressed else "ok"
        lines.append(
            f"{c.name}: {c.current_s * 1e3:.3f} ms vs baseline "
            f"{c.baseline_s * 1e3:.3f} ms ({c.ratio:.2f}x, tolerance "
            f"{tolerance}x) {status}"
        )
    regressed = [c.name for c in checks if c.regressed]
    lines.append(
        f"regression gate: {len(regressed)}/{len(checks)} check(s) failed"
        + (f" ({', '.join(regressed)})" if regressed else "")
    )
    return "\n".join(lines)
