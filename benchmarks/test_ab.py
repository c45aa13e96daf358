"""Unit tests of the A/B runner's statistics and bookkeeping (no program runs).

    python -m pytest benchmarks/test_ab.py -q
"""

from __future__ import annotations

import math

import pytest

from benchmarks.ab import (
    MEASURES,
    WORKLOADS,
    clean_copy,
    measures,
    paired,
    report,
    sign_test,
)
from benchmarks.e2e.workloads import WORKLOADS as HARNESS_WORKLOADS


def test_workloads_match_the_harness():
    assert set(WORKLOADS) == set(HARNESS_WORKLOADS)


def test_sign_test_p_values():
    assert sign_test(10, 0) == pytest.approx(2 / 1024)
    assert sign_test(0, 10) == pytest.approx(2 / 1024)
    assert sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert sign_test(5, 5) == 1.0
    assert sign_test(3, 2) == 1.0
    assert sign_test(0, 0) == 1.0
    # The one-sided tail of 8 of 10, doubled.
    assert sign_test(8, 2) == pytest.approx(2 * (1 + 10 + 45) / 1024)


def test_paired_counts_wins_ties_and_ratio():
    old = [2.0, 2.0, 2.0, 2.0, 2.0]
    new = [1.0, 1.5, 2.0, 2.5, 1.0]  # 3 wins, 1 tie, 1 loss
    c = paired(old, new)
    assert (c["wins"], c["pairs"]) == (3, 5)
    assert c["ratio"] == pytest.approx(0.75)
    assert c["p"] == sign_test(3, 1)
    with pytest.raises(ValueError):
        paired([1.0], [])


def test_null_comparison_reads_no_difference():
    same = [3.0, 2.5, 2.7, 3.1, 2.9, 2.6]
    c = paired(same, list(same))
    assert c["wins"] == 0 and c["ratio"] == 1.0 and c["p"] == 1.0


_BENCH = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]}


def _record(run_s: float, walls: list[float], digest: str = "abc", failed: int = 0) -> dict:
    timings = [["setup", 0.5, 0.6], *(["run", w, w * 1.1] for w in walls)]
    return {"workload": "anneal-4096", "seed": 0,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": 50.0 + run_s, "unit": "MiB"}},
            "details": {"timings": timings, "digest": digest},
            "attempted": 1, "failed": failed}


def test_measures_read_the_record():
    record = _record(2.5, [2.0, 3.0, 2.2])
    run = measures(record, cpu_s=7.5)
    assert run == {"run_s": 2.5, "run_wall_s": 2.2, "cpu_s": 7.5, "record": record}


def test_report_pairs_the_measures_and_adds_the_harness_verdicts():
    old = [measures(_record(2.0 + i / 10, [2.1 + i / 10]), 3.0 + i) for i in range(5)]
    new = [measures(_record(1.5 + i / 10, [1.6 + i / 10]), 2.0 + i) for i in range(5)]
    lines = report(old, new, _BENCH, seed=0)
    paired_rows = lines[1:1 + len(MEASURES)]
    assert [line.split()[0] for line in paired_rows] == list(MEASURES)
    assert all("5/5" in line for line in paired_rows)
    verdicts = lines[2 + len(MEASURES):]
    assert [line.split()[0] for line in verdicts[:3]] == ["run_s", "peak_rss_mb", "failed_ratio"]
    assert verdicts[0].endswith("ok") and verdicts[1].endswith("ok")
    assert verdicts[-1] == ("anneal-4096: trajectory digests differ for 0 of 1 seed(s) "
                            "run by both sets")
    # One tool, one set of quartiles: the paired run_s row and the harness's agree.
    assert paired_rows[0].split()[1:7] == verdicts[0].split()[1:7]
    new[1]["record"]["details"]["digest"] = "other"
    new[2]["record"]["failed"] = 1
    lines = report(old, new, _BENCH, seed=0)
    assert lines[-2].split()[0] == "failed_ratio" and lines[-2].endswith("regressed")
    assert "differ for 1 of 1" in lines[-1]


def test_clean_copy_leaves_caches_and_leftovers_behind(tmp_path):
    tree = tmp_path / "tree"
    for path in ("src/repro/core/x.py", "src/repro/core/__pycache__/x.cpython-311.pyc",
                 "benchmarks/e2e/run.py", "benchmarks/e2e/results/old.json",
                 "benchmarks/.e2e_work/leftover.json", "README.md"):
        (tree / path).parent.mkdir(parents=True, exist_ok=True)
        (tree / path).write_text("x")
    copy = clean_copy(tree, tmp_path / "copy")
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert copied == ["benchmarks/e2e/run.py", "src/repro/core/x.py"]


def test_ratio_is_per_pair_median():
    c = paired([1.0, 2.0, 4.0], [0.5, 2.0, 4.4])
    assert math.isclose(c["ratio"], 1.0)
