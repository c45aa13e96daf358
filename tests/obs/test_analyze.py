"""Span-tree reconstruction, time attribution, and flamegraph export."""

from __future__ import annotations

import pytest

from repro.obs import MemorySink, TelemetryRegistry
from repro.obs.analyze import (
    analyze_report,
    build_span_trees,
    critical_path,
    folded_stacks,
    format_folded,
    span_rollup,
)


def span(name, ts, duration_s, depth, parent=None, status="ok"):
    return {
        "schema": "repro.obs/v1",
        "kind": "span",
        "name": name,
        "ts": ts,
        "duration_s": duration_s,
        "depth": depth,
        "parent": parent,
        "status": status,
        "attrs": {},
    }


class TestBuildSpanTrees:
    def test_simple_nesting(self):
        # Exit order is post-order: children close before their parent.
        records = [
            span("child_a", 1.0, 0.4, 1, parent="root"),
            span("child_b", 1.9, 0.8, 1, parent="root"),
            span("root", 2.0, 1.9, 0),
        ]
        roots = build_span_trees(records)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root" and not root.orphaned
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.self_time_s == pytest.approx(1.9 - 0.4 - 0.8)

    def test_grandchildren_attach_to_middle_level(self):
        records = [
            span("leaf", 0.5, 0.2, 2, parent="mid"),
            span("mid", 0.8, 0.6, 1, parent="root"),
            span("root", 1.0, 1.0, 0),
        ]
        (root,) = build_span_trees(records)
        assert root.children[0].name == "mid"
        assert root.children[0].children[0].name == "leaf"

    def test_non_span_records_ignored(self):
        records = [
            {"schema": "repro.obs/v1", "kind": "counter", "name": "x",
             "ts": 0.0, "value": 3},
            span("root", 1.0, 1.0, 0),
        ]
        assert len(build_span_trees(records)) == 1

    def test_truncated_trace_marks_orphans(self):
        # A killed worker: the child exited but its parent never did.
        records = [span("child", 1.0, 0.4, 1, parent="root")]
        (orphan,) = build_span_trees(records)
        assert orphan.name == "child"
        assert orphan.orphaned
        # Its recorded time still shows up in the rollup.
        assert span_rollup([orphan])["child"]["total_s"] == pytest.approx(0.4)

    def test_truncated_trace_keeps_orphan_subtree(self):
        records = [
            span("leaf", 0.9, 0.1, 2, parent="mid"),
            span("mid", 1.0, 0.5, 1, parent="root"),
            # root never exits
        ]
        (orphan,) = build_span_trees(records)
        assert orphan.name == "mid" and orphan.orphaned
        assert orphan.children[0].name == "leaf"
        assert not orphan.children[0].orphaned

    def test_merged_multiprocess_blocks_form_a_forest(self):
        # Two pool workers' snapshots re-emit as contiguous blocks, each
        # rooted at depth 0 with the same span names.
        records = [
            span("anneal.run", 1.0, 1.0, 0),            # worker 0
            span("inner", 2.5, 0.3, 1, parent="anneal.run"),
            span("anneal.run", 3.0, 2.0, 0),            # worker 1
        ]
        roots = build_span_trees(records)
        assert [r.name for r in roots] == ["anneal.run", "anneal.run"]
        # The second worker's root claims its own child, not the first's.
        assert roots[0].children == []
        assert [c.name for c in roots[1].children] == ["inner"]
        rollup = span_rollup(roots)
        assert rollup["anneal.run"]["count"] == 2
        assert rollup["anneal.run"]["total_s"] == pytest.approx(3.0)

    def test_zero_duration_spans(self):
        records = [
            span("instant", 1.0, 0.0, 1, parent="root"),
            span("root", 1.0, 0.5, 0),
        ]
        (root,) = build_span_trees(records)
        child = root.children[0]
        assert child.duration_s == 0.0
        assert child.self_time_s == 0.0
        assert root.self_time_s == pytest.approx(0.5)
        folded = folded_stacks([root])
        assert folded["root;instant"] == 0.0

    def test_self_time_clamped_at_zero(self):
        # Clock skew can make children sum past the parent; never negative.
        records = [
            span("child", 1.0, 0.9, 1, parent="root"),
            span("root", 1.0, 0.5, 0),
        ]
        (root,) = build_span_trees(records)
        assert root.self_time_s == 0.0


class TestFoldedStacks:
    def test_folded_values_sum_to_root_duration(self):
        records = [
            span("leaf", 0.5, 0.2, 2, parent="mid"),
            span("mid", 0.8, 0.6, 1, parent="root"),
            span("other", 0.9, 0.1, 1, parent="root"),
            span("root", 1.0, 1.0, 0),
        ]
        roots = build_span_trees(records)
        folded = folded_stacks(roots)
        assert sum(folded.values()) == pytest.approx(roots[0].duration_s)
        assert set(folded) == {"root", "root;mid", "root;mid;leaf", "root;other"}

    def test_format_is_flamegraph_input(self):
        folded = {"a;b": 0.5, "a": 1.0}
        lines = format_folded(folded).splitlines()
        assert lines == ["a 1000000", "a;b 500000"]  # microseconds, heaviest first

    def test_identical_stacks_accumulate(self):
        records = [
            span("anneal.run", 1.0, 1.0, 0),
            span("anneal.run", 2.0, 2.0, 0),
        ]
        folded = folded_stacks(build_span_trees(records))
        assert folded == {"anneal.run": pytest.approx(3.0)}


class TestCriticalPath:
    def test_descends_heaviest_child(self):
        records = [
            span("light", 0.4, 0.1, 1, parent="root"),
            span("heavy", 0.9, 0.7, 1, parent="root"),
            span("root", 1.0, 1.0, 0),
        ]
        (root,) = build_span_trees(records)
        assert [n.name for n in critical_path(root)] == ["root", "heavy"]


class TestAnalyzeReport:
    def test_report_sections(self):
        records = [
            span("inner", 0.8, 0.5, 1, parent="root"),
            span("root", 1.0, 1.0, 0),
            {"schema": "repro.obs/v1", "kind": "timer", "name": "kernel.bfs_s",
             "ts": 1.0, "count": 10, "total_s": 0.5, "max_s": 0.1},
        ]
        report = analyze_report(records)
        assert "span trees" in report
        assert "time attribution" in report
        assert "critical path: root" in report
        assert "kernel.bfs_s" in report

    def test_empty_trace(self):
        report = analyze_report([])
        assert "no spans" in report

    def test_orphans_flagged_in_report(self):
        report = analyze_report([span("child", 1.0, 0.4, 1, parent="gone")])
        assert "orphaned" in report


class TestEndToEnd:
    def test_flamegraph_root_time_matches_wall_time(self):
        """Acceptance: the serial solve is one tree, and the folded-stack
        time of its anneal.run subtrees is within 5% of the summed
        AnnealingResult.wall_time_s of the traced solve."""
        from repro.core.annealing import AnnealingSchedule
        from repro.core.solver import solve_orp

        tel = TelemetryRegistry("test")
        sink = MemorySink()
        tel.add_sink(sink)
        sol = solve_orp(
            48, 6, schedule=AnnealingSchedule(num_steps=500),
            restarts=2, seed=3, telemetry=tel,
        )
        tel.close()
        (root,) = build_span_trees(sink.events)
        assert root.name == "solver.anneal_restarts"
        anneal_runs = [c for c in root.children if c.name == "anneal.run"]
        assert len(anneal_runs) == len(sol.restarts) == 2
        folded = folded_stacks(anneal_runs)
        folded_total = sum(folded.values())
        wall_total = sum(r.wall_time_s for r in sol.restarts)
        assert folded_total == pytest.approx(wall_total, rel=0.05)

    def test_traced_run_bit_identical_to_untraced(self):
        """Monitoring must be a pure observer: same graph, same numbers."""
        from repro.core.annealing import AnnealingSchedule
        from repro.core.serialization import graph_to_text
        from repro.core.solver import solve_orp

        kwargs = dict(schedule=AnnealingSchedule(num_steps=300), restarts=2, seed=7)
        plain = solve_orp(32, 6, **kwargs)
        tel = TelemetryRegistry("test")
        tel.add_sink(MemorySink())
        traced = solve_orp(32, 6, telemetry=tel, **kwargs)
        tel.close()
        assert traced.h_aspl == plain.h_aspl  # repro-lint: disable=REP004 -- bit-identity check
        assert graph_to_text(traced.graph) == graph_to_text(plain.graph)
