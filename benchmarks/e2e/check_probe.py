"""Check that the speed correction does not depend on the code under test.

    python3 benchmarks/e2e/check_probe.py [--seconds 240]

Runs short anneals (anneal-4096's start graph, 600 steps) under the speed
probe, alternating a base unit with two deliberately slower variants: one
adds pure-Python work, one streams 64 MiB through the caches after the
anneal.  Neighbouring units see the same host speed, so the median ratio
of variant to base time is the true slowdown.  The correction is
independent of the code when the corrected ratio equals the raw one: a
probe that the variant itself slows would shrink the corrected ratio and
hide the regression.  It also prints how much the correction narrows the
spread of the base unit across 20 s windows.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=240.0)
    args = parser.parse_args(argv)
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    import numpy as np

    import repro.core.annealing as annealing
    import repro.core.construct as construct
    from benchmarks.e2e.speed import SpeedProbe

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = construct.random_host_switch_graph(4096, 734, 16, seed=0)
    schedule = annealing.AnnealingSchedule(num_steps=600)
    hog = np.zeros(8 << 20, dtype=np.uint64)

    def python_work() -> None:
        total = 0
        for i in range(1_500_000):
            total += i

    def stream_cache() -> None:
        for _ in range(2):
            np.add(hog, 1, out=hog)

    variants = {"base": None, "python": python_work, "cache": stream_cache}
    spans: list[tuple[str, float, float]] = []
    with SpeedProbe() as probe:
        t_end = time.perf_counter() + args.seconds
        while time.perf_counter() < t_end:
            for name, extra in variants.items():
                t0 = time.perf_counter()
                annealing.anneal(start, schedule=schedule, seed=1)
                if extra is not None:
                    extra()
                spans.append((name, t0, time.perf_counter()))
    rounds = [spans[i : i + len(variants)] for i in range(0, len(spans), len(variants))]
    rounds = [r for r in rounds if len(r) == len(variants)]
    print(f"{len(rounds)} rounds of {', '.join(variants)}")
    for name in list(variants)[1:]:
        raw, corrected, kernel = [], [], []
        for r in rounds:
            (_, b0, b1), (_, v0, v1) = r[0], next(s for s in r if s[0] == name)
            raw.append((v1 - v0) / (b1 - b0))
            corrected.append(probe.corrected(v0, v1) / probe.corrected(b0, b1))
            kernel.append(probe.kernel_time(v0, v1) / probe.kernel_time(b0, b1))
        print(
            f"{name:7s} slowdown raw x{statistics.median(raw):.3f}  "
            f"corrected x{statistics.median(corrected):.3f}  "
            f"(kernel time x{statistics.median(kernel):.3f} beside it)"
        )
    base = [(s, e) for name, s, e in spans if name == "base"]
    windows: list[list[tuple[float, float]]] = []
    first = base[0][0]
    for unit in base:
        index = int((unit[0] - first) // 20.0)
        while len(windows) <= index:
            windows.append([])
        windows[index].append(unit)
    windows = [w for w in windows if w]
    if len(windows) >= 4:
        raw_w = [statistics.median(e - s for s, e in w) for w in windows]
        cor_w = [statistics.median(probe.corrected(s, e) for s, e in w) for w in windows]
        print(
            f"base unit over {len(windows)} windows of 20 s: spread raw {_spread(raw_w):.1%}, "
            f"corrected {_spread(cor_w):.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
