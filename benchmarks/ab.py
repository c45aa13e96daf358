"""A/B-compare two source trees on one end-to-end workload.

    python benchmarks/ab.py OLD_TREE NEW_TREE --workload anneal-4096 --pairs 10 [--seed 0]

Each pair runs ``benchmarks/e2e/run.py --record`` once on each tree, one
after the other, for the ``run_seconds`` that ``BENCHMARK.json`` sets,
and the tree that runs first alternates from pair to pair, so a drift in
host speed falls on both sides alike.  Every run gets
a fresh copy of its tree's ``src/`` and ``benchmarks/`` (no bytecode
caches, no leftovers of earlier runs), made before the run starts and
deleted after it.

Three measures are compared pair by pair, each lower-is-better:

- ``run_s``: the record's corrected ``run_s`` (the harness's metric);
- ``run_wall_s``: the median raw wall time of the run phase's timed
  calls, from the record's ``timings`` (no speed correction);
- ``cpu_s``: user + system CPU seconds of the whole ``run.py`` process
  and its children (set-up, run and checks; on query-mixed the server
  too), from ``RUSAGE_CHILDREN`` deltas.

For each it prints both sides' median and quartiles, how many of the N
pairs the new tree won, the median of the per-pair ratios new/old and a
two-sided sign-test p (ties left out).  Below that it prints what
``benchmarks/e2e/compare.py`` makes of the same records: a bound verdict
for every end-to-end metric of ``BENCHMARK.json`` and the failed
ratio, and whether the trajectory digests match.  Nothing under
``benchmarks/e2e/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # replaces this script's directory

from benchmarks.e2e import compare as e2e  # noqa: E402

WORKLOADS = ("solve-1024", "anneal-4096", "compose-100k", "query-mixed")
MEASURES = ("run_s", "run_wall_s", "cpu_s")
#: What a run needs from a tree; caches and run leftovers stay behind.
_COPIED = ("src", "benchmarks")
_IGNORED = shutil.ignore_patterns(
    "__pycache__", "*.pyc", ".e2e_work", ".pytest_cache", ".hypothesis", "results"
)


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def paired(old: list[float], new: list[float]) -> dict[str, Any]:
    """Pairwise summary of one lower-is-better measure (pair i is old[i], new[i])."""
    if len(old) != len(new) or not old:
        raise ValueError("need the same, non-zero number of old and new runs")
    wins = sum(n < o for o, n in zip(old, new))
    losses = sum(n > o for o, n in zip(old, new))
    return {
        "wins": wins,
        "pairs": len(old),
        "ratio": statistics.median(n / o for o, n in zip(old, new)),
        "p": sign_test(wins, losses),
    }


def measures(record: dict[str, Any], cpu_s: float) -> dict[str, Any]:
    """The compared numbers of one ``run.py --record`` record, and the record."""
    walls = [wall for phase, wall, _ in record["details"]["timings"] if phase == "run"]
    return {
        "run_s": record["metrics"]["run_s"]["value"],
        "run_wall_s": statistics.median(walls),
        "cpu_s": cpu_s,
        "record": record,
    }


def clean_copy(tree: Path, dest: Path) -> Path:
    """Copy what a run needs from ``tree`` into ``dest``; returns ``dest``."""
    for name in _COPIED:
        shutil.copytree(tree / name, dest / name, ignore=_IGNORED)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """One ``run.py --record`` run on a fresh copy of ``tree``."""
    copy = clean_copy(tree, Path(tempfile.mkdtemp(prefix="tree-", dir=scratch)))
    record_path = copy / "record.json"
    cmd = [sys.executable, str(copy / "benchmarks" / "e2e" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--record", str(record_path)]
    try:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=900)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"run.py exited {proc.returncode} on {tree}:\n{proc.stderr}")
        record = json.loads(record_path.read_text())
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return measures(record, cpu)


def _span(q: tuple[float, float, float]) -> str:
    return f"{q[1]:10.5g} [{q[0]:.5g}, {q[2]:.5g}]".ljust(32)


def report(old_runs: list[dict], new_runs: list[dict], bench: dict, seed: int) -> list[str]:
    """The pairwise table, then ``compare.py``'s verdicts on the same records."""
    lines = [f"{'measure':13s} {'old median [q1, q3]':32s} {'new median [q1, q3]':32s}"
             f" {'wins':>7s} {'new/old':>8s} {'sign p':>8s}"]
    for name in MEASURES:
        old, new = [r[name] for r in old_runs], [r[name] for r in new_runs]
        c = paired(old, new)
        lines.append(f"{name:13s} {_span(e2e._quartiles(old))} {_span(e2e._quartiles(new))}"
                     f" {c['wins']:>3d}/{c['pairs']:<3d} {c['ratio']:8.3f} {c['p']:8.3g}")
    rows, notes = e2e.compare({"runs": [r["record"] for r in old_runs], "seed": seed},
                              {"runs": [r["record"] for r in new_runs], "seed": seed}, bench)
    lines.append(f"{'metric':13s} {'old median [q1, q3]':32s} {'new median [q1, q3]':32s}"
                 f" {'bound':>7s}  verdict")
    for row in rows:
        lines.append(f"{row['metric']:13s} {_span(row['reference'])} {_span(row['candidate'])}"
                     f" {row['bound']:7.1%}  {row['verdict']}")
    return lines + notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the baseline source tree")
    parser.add_argument("new", type=Path, help="the changed source tree")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for side, tree in trees.items():
        if not (tree / "benchmarks" / "e2e" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no benchmarks/e2e/run.py")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                run = run_once(trees[side], args.workload, args.seed, seconds, scratch)
                runs[side].append(run)
                digest = str(run["record"]["details"].get("digest"))[:8]
                print(f"pair {i + 1}/{args.pairs} {side}: run_s {run['run_s']:.4g} "
                      f"wall {run['run_wall_s']:.4g} cpu {run['cpu_s']:.4g} "
                      f"digest {digest}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} pairs={args.pairs} "
          f"old={trees['old']} new={trees['new']}")
    for line in report(runs["old"], runs["new"], bench, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
