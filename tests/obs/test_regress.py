"""Benchmark payload loading and the baseline-file regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.regress import detect_regressions, format_checks, load_bench

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLoadBench:
    def test_schema_1_committed_baseline(self):
        # The real committed baselines predate the meta block.
        payload = load_bench(REPO_ROOT / "BENCH_pr7.json")
        assert payload["meta"] == {}
        assert "bench_h_aspl_4096_bitset" in payload["benchmarks"]
        assert all(isinstance(v, float) for v in payload["benchmarks"].values())

    def test_schema_2_with_meta(self, tmp_path):
        doc = {
            "schema": 2,
            "meta": {
                "schema_version": 2,
                "git_commit": "abc123",
                "timestamp": "2026-08-08T00:00:00Z",
                "backend": "bitset",
            },
            "benchmarks": {"bench_x": {"seconds": 0.5, "per_call_us": 1.0}},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        payload = load_bench(path)
        assert payload["benchmarks"] == {"bench_x": 0.5}
        assert payload["meta"]["git_commit"] == "abc123"

    def test_rejects_non_bench_payload(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"results": []}')
        with pytest.raises(ValueError, match="benchmarks"):
            load_bench(path)


class TestDetectRegressions:
    def test_synthetic_2x_slowdown_flagged_vs_real_baseline(self):
        """Acceptance: a 2x slowdown against BENCH_pr7.json must FAIL."""
        baseline = load_bench(REPO_ROOT / "BENCH_pr7.json")["benchmarks"]
        names = ["bench_h_aspl_4096_bitset", "bench_anneal_step_4096_incremental"]
        slow = {name: baseline[name] * 2.0 for name in names}
        checks = detect_regressions(slow, baseline, names=names)
        assert all(c.regressed for c in checks)
        assert all(c.ratio == pytest.approx(2.0) for c in checks)
        report = format_checks(checks)
        assert "2/2 check(s) failed" in report
        assert "FAIL" in report

    def test_real_trajectory_passes_self_check(self):
        """Acceptance: the committed baseline vs itself is clean."""
        baseline = load_bench(REPO_ROOT / "BENCH_pr7.json")["benchmarks"]
        checks = detect_regressions(dict(baseline), baseline)
        assert not any(c.regressed for c in checks)
        assert "0/" in format_checks(checks)

    def test_missing_name_is_a_failure(self):
        (check,) = detect_regressions({}, {"bench_x": 1.0}, names=["bench_x"])
        assert check.regressed and check.ratio is None
        assert "missing from current run" in format_checks([check])
        (check,) = detect_regressions({"bench_x": 1.0}, {}, names=["bench_x"])
        assert check.regressed and check.ratio is None
        assert "missing from baseline FAIL" in format_checks([check])

    def test_names_default_to_baseline_keys(self):
        checks = detect_regressions({"a": 1.0, "b": 1.0}, {"a": 1.0})
        assert [c.name for c in checks] == ["a"]

    def test_tolerance_is_configurable(self):
        (check,) = detect_regressions(
            {"a": 1.4}, {"a": 1.0}, names=["a"], tolerance=1.3
        )
        assert check.regressed
