"""Run a set of end-to-end benchmark runs, each in a fresh process.

    python -m benchmarks.e2e --seed S [S ...] [--workloads W ...] [--repeat N]
                             [--seconds 20] [--trace] --out FILE

Runs every selected workload ``--repeat`` times per seed, one after
another, each through ``run.py`` in a fresh interpreter, and writes the
run records to FILE as one set (the input of ``compare.py``).  Several
seeds make a scan: one run per seed and workload.
With ``--trace`` the runs are traced runs and ``trace-<workload>.json``
lands beside FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e.compare import spread

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-1024", "anneal-4096", "compose-100k", "query-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in args.seed:
        for workload in [w for _ in range(args.repeat) for w in args.workloads]:
            fd, record = tempfile.mkstemp(suffix=".json", dir=out.parent)
            os.close(fd)
            try:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "1" if args.trace else "0", "--record", record],
                    timeout=900,
                )
                if proc.returncode != 0:
                    print(f"{workload}: run.py exited {proc.returncode}", file=sys.stderr)
                    return 1
                runs.append({**json.loads(Path(record).read_text()),
                             "wall_s": time.monotonic() - start})
            finally:
                Path(record).unlink(missing_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed[0] if len(args.seed) == 1 else args.seed,
         "seconds": args.seconds, "trace": args.trace, "runs": runs},
        indent=1,
    ) + "\n")

    print(f"\n{len(runs)} run(s) -> {out}")
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        wall = statistics.median(r["wall_s"] for r in mine)
        print(f"{workload}: failed_ratio {failed}/{attempted}, median run {wall:.1f} s wall"
              "  (median, spread over runs)")
        for name, entry in mine[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in mine]
            print(f"  {name:32s} {statistics.median(values):>14.6g} {entry['unit']:6s} "
                  f"{spread(values):7.2%}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
