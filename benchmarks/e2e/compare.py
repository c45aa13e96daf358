"""Judge a candidate benchmark set against a reference set.

    python3 benchmarks/e2e/compare.py REFERENCE.json CANDIDATE.json

Both files are set files written by ``python -m benchmarks.e2e --out``.
Every (workload, end-to-end metric) pair gets one row and one verdict,
using the bound BENCHMARK.json fixes for that metric:

- ``unresolved`` — either set's run-to-run spread (interquartile range
  over median) is wider than the bound, and not every candidate run beats
  every reference run;
- ``regressed``  — the candidate median is worse than the reference
  median by more than the bound;
- ``ok``         — otherwise.

Two rules go beyond BENCHMARK.json's metrics:

- ``h_aspl`` repeats exactly for one seed, so when both sets ran the same
  seed any increase is a regression (bound 0); BENCHMARK.json's bound
  covers the spread between seeds only.
- ``failed_ratio`` (failed / attempted operations, over all runs of a
  workload) regresses on any increase.

For every seed both sets ran, it also reports whether the runs'
trajectory digests match.  Exits 1 when any pair regressed or is
unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
EXACT_FOR_ONE_SEED = "h_aspl"

__all__ = ["classify", "compare", "spread"]


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def classify(ref: list[float], cand: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(ref), spread(cand)) > bound:
        if all(sign * (c - r) < 0 for c in cand for r in ref):
            return "ok"
        return "unresolved"
    worse = sign * (statistics.median(cand) - statistics.median(ref))
    return "regressed" if worse > bound * abs(statistics.median(ref)) else "ok"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _by_workload(doc: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = {}
    for run in doc["runs"]:
        runs.setdefault(run["workload"], []).append(run)
    return runs


def _row(workload: str, metric: str, unit: str, bound: float, a: list[float],
         b: list[float], verdict: str) -> dict[str, Any]:
    return {
        "workload": workload, "metric": metric, "unit": unit, "bound": bound,
        "reference": _quartiles(a), "candidate": _quartiles(b),
        "spread": max(spread(a), spread(b)), "verdict": verdict,
    }


def _failed_ratio(runs: list[dict[str, Any]]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(
    ref: dict[str, Any], cand: dict[str, Any], bench: dict[str, Any]
) -> tuple[list[dict[str, Any]], list[str]]:
    """Verdict rows per (workload, metric) plus digest notes."""
    ref_runs, cand_runs = _by_workload(ref), _by_workload(cand)
    same_seed = ref.get("seed") == cand.get("seed")
    specs = {spec["name"]: spec for spec in bench["end_to_end"]}
    rows, notes = [], []
    for workload in sorted(set(ref_runs) & set(cand_runs)):
        mine, theirs = ref_runs[workload], cand_runs[workload]
        for name, spec in specs.items():
            a = [r["metrics"][name]["value"] for r in mine]
            b = [r["metrics"][name]["value"] for r in theirs]
            bound = 0.0 if name == EXACT_FOR_ONE_SEED and same_seed else spec["bound"]
            rows.append(_row(workload, name, spec["unit"], bound, a, b,
                             classify(a, b, bound, spec["better"])))
        fa, fb = _failed_ratio(mine), _failed_ratio(theirs)
        rows.append(_row(workload, "failed_ratio", "ratio", 0.0, [fa], [fb],
                         "regressed" if fb > fa else "ok"))
        shared = {r["seed"] for r in mine} & {r["seed"] for r in theirs}
        if shared:
            digests: dict[int, set[str]] = {}
            for r in mine + theirs:
                if r["seed"] in shared:
                    digests.setdefault(r["seed"], set()).add(r["details"].get("digest"))
            differ = sum(len(d) > 1 for d in digests.values())
            notes.append(f"{workload}: trajectory digests differ for {differ} of "
                         f"{len(shared)} seed(s) run by both sets")
    return rows, notes


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ref, cand = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, notes = compare(ref, cand, bench)
    print(f"{'workload':14s} {'metric':13s} {'reference q1/med/q3':>32s} "
          f"{'candidate q1/med/q3':>32s} {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        a, b = row["reference"], row["candidate"]
        change = (b[1] - a[1]) / abs(a[1]) if a[1] else 0.0
        print(
            f"{row['workload']:14s} {row['metric']:13s} "
            f"{a[0]:10.5g}/{a[1]:10.5g}/{a[2]:10.5g} {b[0]:10.5g}/{b[1]:10.5g}/{b[2]:10.5g} "
            f"{change:+8.2%} {row['spread']:7.2%} {row['bound']:6.1%}  {row['verdict']}"
        )
    for note in notes:
        print(note)
    bad = [row for row in rows if row["verdict"] != "ok"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
