"""Fixture-snippet tests for the per-file ``repro-lint`` rules and its CLI.

Each rule gets at least one firing and one non-firing snippet; waivers and
the console entry point are exercised at the end.  Snippets are linted as
strings under fake ``src/repro/...`` paths so the package-sensitive rules
(REP005) see realistic module locations.  The trial-loop snippets of the
deleted REP009 are written to a tmp ``repro/analysis`` tree and linted
through :func:`lint_paths`, where the flow rule REP012 covers them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    Diagnostic,
    DuplicateModuleError,
    lint_paths,
    lint_source,
    main,
)

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

LIB_PATH = "src/repro/analysis/fake_module.py"
CORE_PATH = "src/repro/core/fake_module.py"


def codes(source: str, path: str = LIB_PATH) -> list[str]:
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


# --------------------------------------------------------------------- #
# REP001 — unseeded randomness
# --------------------------------------------------------------------- #


def test_rep001_fires_on_global_random_module():
    src = """
        import random

        def pick(xs):
            return random.choice(xs)
        """
    assert "REP001" in codes(src)


def test_rep001_fires_on_numpy_global_random():
    src = """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
        """
    assert "REP001" in codes(src)


def test_rep001_fires_on_zero_arg_default_rng():
    src = """
        import numpy as np

        def noise(n):
            rng = np.random.default_rng()
            return rng.random(n)
        """
    assert "REP001" in codes(src)


def test_rep001_fires_on_unseeded_stochastic_entry_point():
    src = """
        from repro.core.annealing import anneal

        def solve(g):
            return anneal(g)
        """
    assert "REP001" in codes(src)


def test_rep001_quiet_on_seeded_calls():
    src = """
        import numpy as np
        from repro.core.annealing import anneal

        def solve(g, seed):
            rng = np.random.default_rng(seed)
            return anneal(g, seed=rng)
        """
    assert codes(src) == []


# --------------------------------------------------------------------- #
# REP002 — mutated graph returned without validate()
# --------------------------------------------------------------------- #


def test_rep002_fires_on_unvalidated_construction():
    src = """
        from repro.core.hostswitch import HostSwitchGraph

        def build():
            g = HostSwitchGraph(num_switches=2, radix=4)
            g.add_switch_edge(0, 1)
            g.attach_host(0)
            return g
        """
    assert "REP002" in codes(src)


def test_rep002_quiet_when_validated():
    src = """
        from repro.core.hostswitch import HostSwitchGraph

        def build():
            g = HostSwitchGraph(num_switches=2, radix=4)
            g.add_switch_edge(0, 1)
            g.attach_host(0)
            g.validate()
            return g
        """
    assert codes(src) == []


def test_rep002_quiet_when_not_returned():
    # Mutating in place on behalf of the caller is the helper contract
    # (_add_random_edges-style); only *returning* unvalidated fires.
    src = """
        from repro.core.hostswitch import HostSwitchGraph

        def fill(g: HostSwitchGraph) -> None:
            g.attach_host(0)
        """
    assert codes(src) == []


# --------------------------------------------------------------------- #
# REP003 — shortest-path calls in Python loops / duplicated APSP
# --------------------------------------------------------------------- #


def test_rep003_fires_on_dist_call_in_loop():
    src = """
        from repro.core.metrics import h_aspl

        def sweep(graphs):
            return [h_aspl(g) for g in graphs[:0]] or [h_aspl(g) for g in graphs]
        """
    # comprehension counts as a loop
    assert "REP003" in codes(src)


def test_rep003_fires_on_for_loop():
    src = """
        from repro.core.metrics import single_source_host_distances

        def all_rows(g, hosts):
            rows = []
            for h in hosts:
                rows.append(single_source_host_distances(g, h))
            return rows
        """
    assert "REP003" in codes(src)


def test_rep003_fires_on_duplicate_apsp_same_block():
    src = """
        from repro.core.metrics import diameter, h_aspl

        def report(g):
            a = h_aspl(g)
            d = diameter(g)
            return a, d
        """
    assert "REP003" in codes(src)


def test_rep003_quiet_on_single_batched_call():
    src = """
        from repro.core.metrics import h_aspl_and_diameter

        def report(g):
            return h_aspl_and_diameter(g)
        """
    assert codes(src) == []


# --------------------------------------------------------------------- #
# REP004 — float equality on metric values
# --------------------------------------------------------------------- #


def test_rep004_fires_on_metric_equality():
    for src in (
        """
        def is_clique_like(aspl):
            return aspl == 2.0
        """,
        """
        def is_clique_like(w, n):
            return h_aspl_from_weighted_sum(w, n) == 2.0
        """,
    ):
        assert "REP004" in codes(src)


def test_rep004_fires_on_inf_equality():
    src = """
        def disconnected(value):
            return value == float("inf")
        """
    assert "REP004" in codes(src)


def test_rep004_quiet_on_ordering_and_string_compare():
    src = """
        def good(aspl, model):
            return aspl < 2.5 and model == "latency"
        """
    assert codes(src) == []


# --------------------------------------------------------------------- #
# REP005 — private internals crossing package boundaries
# --------------------------------------------------------------------- #


def test_rep005_fires_on_private_import_outside_core():
    src = """
        from repro.core.hostswitch import _private_helper
        """
    assert "REP005" in codes(src)


def test_rep005_fires_on_slot_access_outside_core():
    src = """
        from repro.core.hostswitch import HostSwitchGraph

        def degree(g: HostSwitchGraph, s: int) -> int:
            return len(g._adj[s])
        """
    assert "REP005" in codes(src)


def test_rep005_quiet_inside_core_package():
    src = """
        from repro.core.hostswitch import HostSwitchGraph

        def degree(g: HostSwitchGraph, s: int) -> int:
            return len(g._adj[s])
        """
    assert codes(src, path=CORE_PATH) == []


def test_rep005_slot_list_matches_hostswitch_slots():
    from repro.core.hostswitch import HostSwitchGraph
    from repro.devtools.lint import _HOSTSWITCH_SLOTS

    assert _HOSTSWITCH_SLOTS == frozenset(HostSwitchGraph.__slots__)


# --------------------------------------------------------------------- #
# REP006 — exact h-ASPL in repro.core loops (IncrementalEvaluator applies)
# --------------------------------------------------------------------- #


def test_rep006_fires_instead_of_rep003_in_core():
    src = """
        from repro.core.metrics import h_aspl

        def search(g, moves):
            values = []
            for move in moves:
                values.append(h_aspl(g))
            return values
        """
    found = codes(src, path=CORE_PATH)
    assert "REP006" in found
    assert "REP003" not in found


def test_rep006_covers_h_aspl_and_diameter():
    src = """
        from repro.core.metrics import h_aspl_and_diameter

        def sweep(graphs):
            return [h_aspl_and_diameter(g) for g in graphs]
        """
    assert "REP006" in codes(src, path=CORE_PATH)


def test_rep006_stays_rep003_outside_core():
    src = """
        from repro.core.metrics import h_aspl

        def sweep(graphs):
            return [h_aspl(g) for g in graphs]
        """
    found = codes(src, path=LIB_PATH)
    assert "REP003" in found
    assert "REP006" not in found


def test_rep006_quiet_on_other_dist_funcs_in_core():
    # switch_distance_matrix has no incremental alternative: still REP003.
    src = """
        from repro.core.metrics import switch_distance_matrix

        def rows(g, sources):
            return [switch_distance_matrix(g, s) for s in sources]
        """
    found = codes(src, path=CORE_PATH)
    assert "REP003" in found
    assert "REP006" not in found


def test_rep006_waivable():
    src = """
        from repro.core.metrics import h_aspl

        def search(g, moves):
            values = []
            for move in moves:
                values.append(h_aspl(g))  # repro-lint: disable=REP006 -- oracle check
            return values
        """
    assert codes(src, path=CORE_PATH) == []


# --------------------------------------------------------------------- #
# REP007 — print()/time.*() bypassing repro.obs in instrumented packages
# --------------------------------------------------------------------- #


def test_rep007_fires_on_print_in_core():
    src = """
        def report(value):
            print(f"h-ASPL is {value}")
        """
    assert "REP007" in codes(src, path=CORE_PATH)


def test_rep007_fires_on_time_time_in_simulation():
    src = """
        import time

        def measure():
            t0 = time.time()
            return time.time() - t0
        """
    found = codes(src, path="src/repro/simulation/fake_module.py")
    assert found.count("REP007") == 2


def test_rep007_fires_on_perf_counter_from_import_alias():
    src = """
        from time import perf_counter as pc

        def measure():
            return pc()
        """
    assert "REP007" in codes(src, path="src/repro/partition/fake_module.py")


def test_rep007_fires_on_aliased_time_module():
    src = """
        import time as t

        def measure():
            return t.perf_counter()
        """
    assert "REP007" in codes(src, path=CORE_PATH)


def test_rep007_silent_outside_instrumented_packages():
    src = """
        import time

        def measure():
            print("timing...")
            return time.perf_counter()
        """
    assert codes(src, path=LIB_PATH) == []
    assert codes(src, path="src/repro/devtools/fake_module.py") == []


def test_rep007_allows_obs_clock_and_other_time_functions():
    src = """
        import time
        from repro.obs import clock

        def measure():
            time.sleep(0.1)
            return clock()
        """
    assert codes(src, path=CORE_PATH) == []


def test_rep007_waivable():
    src = """
        def debug_dump(rows):
            for row in rows:
                print(row)  # repro-lint: disable=REP007 -- debugging helper
        """
    assert codes(src, path=CORE_PATH) == []


# --------------------------------------------------------------------- #
# REP008 — artifact writes in repro.campaign outside the store
# --------------------------------------------------------------------- #

CAMPAIGN_PATH = "src/repro/campaign/executor.py"
CAMPAIGN_STORE_PATH = "src/repro/campaign/store.py"


def test_rep008_fires_on_open_in_campaign_module():
    src = """
        def dump(path, rows):
            with open(path, "w") as fh:
                fh.write(str(rows))
        """
    assert "REP008" in codes(src, path=CAMPAIGN_PATH)


def test_rep008_fires_on_path_write_text():
    src = """
        from pathlib import Path

        def dump(path, text):
            Path(path).write_text(text)
        """
    assert "REP008" in codes(src, path=CAMPAIGN_PATH)


def test_rep008_fires_on_write_bytes():
    src = """
        def dump(path, blob):
            path.write_bytes(blob)
        """
    assert "REP008" in codes(src, path=CAMPAIGN_PATH)


def test_rep008_fires_on_json_dump():
    src = """
        import json

        def dump(fh, record):
            json.dump(record, fh)
        """
    assert "REP008" in codes(src, path=CAMPAIGN_PATH)


def test_rep008_silent_in_the_store_module():
    src = """
        import json

        def persist(path, record):
            with open(path, "w") as fh:
                json.dump(record, fh)
            path.write_text("done")
        """
    assert codes(src, path=CAMPAIGN_STORE_PATH) == []


def test_rep008_silent_outside_repro_campaign():
    src = """
        def dump(path, text):
            with open(path, "w") as fh:
                fh.write(text)
        """
    assert codes(src, path=LIB_PATH) == []
    assert codes(src, path=CORE_PATH) == []


def test_rep008_allows_reads_and_json_dumps():
    src = """
        import json

        def load(path):
            text = path.read_text()
            return json.loads(text), json.dumps({"ok": True})
        """
    assert codes(src, path=CAMPAIGN_PATH) == []


def test_rep008_waivable():
    src = """
        def dump(path, text):
            path.write_text(text)  # repro-lint: disable=REP008 -- scratch file
        """
    assert codes(src, path=CAMPAIGN_PATH) == []

# --------------------------------------------------------------------- #
# Waivers
# --------------------------------------------------------------------- #


def test_same_line_waiver_suppresses():
    src = """
        import random

        def pick(xs):
            return random.choice(xs)  # repro-lint: disable=REP001 -- demo only
        """
    assert codes(src) == []


def test_line_above_waiver_suppresses():
    src = """
        import random

        def pick(xs):
            # repro-lint: disable=REP001 -- demo only
            return random.choice(xs)
        """
    assert codes(src) == []


def test_file_waiver_suppresses_everywhere():
    src = """
        # repro-lint: disable-file=REP001
        import random

        def pick(xs):
            return random.choice(xs)

        def roll():
            return random.random()
        """
    assert codes(src) == []


def test_waiver_is_rule_specific():
    src = """
        import random

        def pick(aspl, xs):
            x = random.choice(xs)  # repro-lint: disable=REP004 -- wrong rule
            return x
        """
    assert "REP001" in codes(src)


def test_syntax_error_reports_rep000():
    assert codes("def broken(:\n") == ["REP000"]


# --------------------------------------------------------------------- #
# Console entry point
# --------------------------------------------------------------------- #


def test_main_exit_codes_and_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n\ndef f():\n    return random.random()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")

    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out
    assert f"{dirty}:4:" in out  # path:line prefix

    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
        "REP008", "REP010", "REP011", "REP012", "REP013", "REP014",
    ):
        assert code in out
    assert "REP009" not in out


def test_main_select_filters_rules(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n\ndef f():\n    return random.random()\n")
    assert main(["--select", "REP004", str(dirty)]) == 0
    assert main(["--select", "REP001", str(dirty)]) == 1


def test_main_flag_validation(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n\ndef f():\n    return random.random()\n")
    assert main(["--select", "REP999", str(dirty)]) == 2
    assert "REP999" in capsys.readouterr().err


def test_shipped_tree_is_clean():
    # The acceptance bar: the repository's own src tree lints clean.
    assert main([str(SRC)]) == 0


def test_fixture_tree_findings_are_pinned():
    # Every seeded fixture finding, exactly: (path, line, col, code).
    found = [
        (Path(d.path).relative_to(FIXTURES).as_posix(), d.line, d.col, d.code)
        for d in lint_paths([str(FIXTURES)])
    ]
    assert found == [
        ("repro/analysis/inf_compare.py", 8, 11, "REP004"),
        ("repro/analysis/restore_gap.py", 12, 4, "REP012"),
        ("repro/campaign/fanout.py", 9, 31, "REP011"),
        ("repro/campaign/fanout.py", 11, 12, "REP011"),
        ("repro/core/frontier_bfs.py", 20, 4, "REP014"),
        ("repro/core/frontier_bfs.py", 36, 4, "REP014"),
        ("repro/core/seed_threading.py", 11, 11, "REP010"),
        ("repro/core/seed_threading.py", 15, 10, "REP010"),
        ("repro/simulation/telemetry_names.py", 5, 4, "REP013"),
        ("repro/simulation/telemetry_names.py", 6, 4, "REP013"),
    ]


def test_duplicate_module_names_are_a_usage_error(tmp_path, capsys):
    # Both files are repro.obs.names; the flow index is keyed by module
    # name, so one registry would silently replace the other.
    first = tmp_path / "a" / "repro" / "obs" / "names.py"
    second = tmp_path / "b" / "repro" / "obs" / "names.py"
    for path in (first, second):
        path.parent.mkdir(parents=True)
        path.write_text('INSTRUMENTS = frozenset({"sim.cycles"})\n')
    capsys.readouterr()
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    assert str(first) in captured.err and str(second) in captured.err
    assert captured.out == ""
    with pytest.raises(DuplicateModuleError):
        lint_paths([str(tmp_path)])
    # The same file named twice is one file, not a collision.
    assert main([str(first), str(first)]) == 0


def test_files_outside_repro_never_collide(tmp_path, capsys):
    # Outside a ``repro`` directory a file is named by its path, so trees
    # like tests/ or benchmarks/ (several __init__.py, two util.py) lint.
    dirty = "import random\n\ndef f():\n    return random.random()\n"
    files = {
        "pkg/__init__.py": "",
        "pkg/sub/__init__.py": "",
        "a/util.py": dirty,
        "b/util.py": dirty,
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    capsys.readouterr()
    assert main([str(tmp_path / "pkg")]) == 0
    assert main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert str(tmp_path / "a" / "util.py") in captured.out
    assert str(tmp_path / "b" / "util.py") in captured.out
    assert [d.code for d in lint_paths([str(tmp_path)])] == ["REP001", "REP001"]


def test_module_entry_point_raises_no_runtime_warning(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.devtools.lint",
         str(clean)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# --------------------------------------------------------------------- #
# Mutate-measure-restore trial loops (REP012 took over from REP009)
# --------------------------------------------------------------------- #


def trial_diags(tmp_path: Path, source: str, name: str = "trial") -> list[Diagnostic]:
    path = tmp_path / "repro" / "analysis" / f"{name}.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(path)])


def test_rep009_fires_on_unprotected_restore(tmp_path):
    src = """
        def sweep(graph, edges, measure):
            out = []
            for a, b in edges:
                graph.remove_switch_edge(a, b)
                out.append(measure(graph))
                graph.add_switch_edge(a, b)
            return out
    """
    (diag,) = trial_diags(tmp_path, src)
    assert diag.code == "REP012"
    assert "'add_switch_edge'" in diag.message


def test_rep009_fires_on_ddm_style_loop(tmp_path):
    src = """
        def sweep(ddm, edges, measure):
            out = []
            for a, b in edges:
                ddm.remove_edge(a, b)
                out.append(measure(ddm.dist))
                ddm.add_edge(a, b)
            return out
    """
    (diag,) = trial_diags(tmp_path, src)
    assert diag.code == "REP012"
    assert "'add_edge'" in diag.message


def test_rep009_clean_with_finally_restore(tmp_path):
    src = """
        def sweep(graph, edges, measure):
            out = []
            for a, b in edges:
                graph.remove_switch_edge(a, b)
                try:
                    out.append(measure(graph))
                finally:
                    graph.add_switch_edge(a, b)
            return out
    """
    assert trial_diags(tmp_path, src) == []


def test_rep009_clean_for_construction_only_loop(tmp_path):
    # Loops that only add (or only remove) edges are building/tearing down
    # a graph, not doing a mutate-measure-restore cycle.
    src = """
        def build(graph, edges):
            for a, b in edges:
                graph.add_switch_edge(a, b)
    """
    assert trial_diags(tmp_path, src, "build") == []
    src = """
        def teardown(graph, edges):
            for a, b in edges:
                graph.remove_switch_edge(a, b)
    """
    assert trial_diags(tmp_path, src, "teardown") == []


def test_rep009_fires_on_routing_fault_api(tmp_path):
    src = """
        def sweep(tables, events, measure):
            for event in events:
                tables.fail_link(0, 1)
                measure(tables)
                tables.repair_link(0, 1)
    """
    (diag,) = trial_diags(tmp_path, src)
    assert diag.code == "REP012"
    assert "'repair_link'" in diag.message


# The switch trial loops of repro.analysis.resilience, without and with
# their try/finally: ``remove_switch`` returns the edges it took down and
# ``add_edge`` puts them back one by one, with arguments of its own.
SWITCH_FAILURE_IMPACT = """
    def impact(graph, ddm, rng, counts, n, trials, measure):
        values = []
        for _ in range(trials):
            victim = int(rng.integers(0, graph.num_switches))
            removed = ddm.remove_switch(victim)
            {try_}
                survivors_n = int(n - counts[victim])
                if survivors_n < 2:
                    continue
                values.append(measure(ddm.dist, survivors_n))
            {finally_}
                for a, b in removed:
                    ddm.add_edge(a, b)
        return values
"""
FAILURE_SWEEP = """
    def sweep(ddm, targets, rng, counts, trials, failures, measure):
        out = []
        for trial in range(trials):
            picked = [targets[int(i)] for i in rng.choice(len(targets), size=failures)]
            removed = []
            {try_}
                for s in picked:
                    removed.extend(ddm.remove_switch(s))
                k = counts.copy()
                k[picked] = 0.0
                out.append(measure(ddm, k))
            {finally_}
                for a, b in removed:
                    ddm.add_edge(a, b)
        return out
"""


def switch_trial(template: str, protected: bool) -> str:
    # Unprotected, the try/finally lines become always-true ifs, so the
    # body keeps its indentation and runs straight into the restore.
    if protected:
        return template.format(try_="try:", finally_="finally:")
    return template.format(try_="if True:", finally_="if True:")


@pytest.mark.parametrize(
    "template", [SWITCH_FAILURE_IMPACT, FAILURE_SWEEP],
    ids=["switch_failure_impact", "failure_sweep"],
)
def test_rep012_fires_on_unprotected_switch_trial_loop(tmp_path, template):
    (diag,) = trial_diags(tmp_path, switch_trial(template, protected=False))
    assert diag.code == "REP012"
    assert "'ddm.remove_switch(...)'" in diag.message
    assert "'add_edge'" in diag.message


@pytest.mark.parametrize(
    "template", [SWITCH_FAILURE_IMPACT, FAILURE_SWEEP],
    ids=["switch_failure_impact", "failure_sweep"],
)
def test_rep012_quiet_on_switch_trial_loop_restored_in_finally(tmp_path, template):
    assert trial_diags(tmp_path, switch_trial(template, protected=True)) == []


def test_rep012_bulk_restore_matches_the_receiver_only(tmp_path):
    # An edge add on another matrix does not restore this one's switch.
    src = """
        def probe(ddm, other, s, measure):
            removed = ddm.remove_switch(s)
            measure(ddm)
            for a, b in removed:
                other.add_edge(a, b)
    """
    assert trial_diags(tmp_path, src) == []
    src = src.replace("other.add_edge", "ddm.add_switch_edge")
    (diag,) = trial_diags(tmp_path, src, "probe_same")
    assert diag.code == "REP012"
    assert "'add_switch_edge'" in diag.message


# --------------------------------------------------------------------- #
# Waiver extents on multi-line statements
# --------------------------------------------------------------------- #


def test_waiver_on_last_line_of_multiline_statement():
    # The finding anchors at the statement's first line, but the waiver
    # sits on its *last* line; statement extents must bridge the gap.
    src = """
        import random

        def pick(xs):
            return random.choice(
                xs,
            )  # repro-lint: disable=REP001 -- demo only
        """
    assert codes(src) == []


def test_waiver_above_multiline_statement():
    src = """
        import random

        def pick(xs):
            # repro-lint: disable=REP001 -- demo only
            return random.choice(
                xs,
            )
        """
    assert codes(src) == []


def test_waiver_inside_multiline_statement_does_not_leak_past_it():
    # A waiver on the statement's last line doubles as a line-above
    # waiver only for the *immediately* following line; with any gap it
    # must not suppress later statements.
    src = """
        import random

        def pick(xs):
            a = random.choice(
                xs,
            )  # repro-lint: disable=REP001 -- only this call

            b = random.choice(xs)
            return a, b
        """
    assert codes(src) == ["REP001"]


# --------------------------------------------------------------------- #
# Global diagnostic ordering (regression)
# --------------------------------------------------------------------- #


def test_diagnostics_sorted_by_path_line_code(tmp_path):
    # Three dirty files named to defeat any directory-order luck, each
    # with per-file and flow findings at assorted lines.
    for name in ("zz.py", "aa.py", "mm.py"):
        (tmp_path / name).write_text(
            "import random\n\n"
            "def f():\n"
            "    return random.random()\n\n"
            "def g(x):\n"
            "    return x == float('inf')\n"
        )
    diags = lint_paths([str(tmp_path)])
    keys = [d.sort_key() for d in diags]
    assert keys == sorted(keys)
    assert [d.path for d in diags] == sorted(
        [d.path for d in diags]
    ), "files must be ordered by path regardless of discovery order"


# --------------------------------------------------------------------- #
# REP014 — hand-rolled frontier BFS outside repro.core.kernels
# --------------------------------------------------------------------- #

KERNELS_PATH = "src/repro/core/kernels/fake_backend.py"
FAULTS_PATH = "src/repro/faults/fake_module.py"

FRONTIER_BFS = """
    import numpy as np

    def bfs(adj, source, num):
        dist = np.full(num, np.inf)
        dist[source] = 0.0
        frontier = [source]
        depth = 0.0
        while frontier:
            depth += 1.0
            nxt = []
            for vertex in frontier:
                for neighbor in adj[vertex]:
                    if np.isinf(dist[neighbor]):
                        dist[neighbor] = depth
                        nxt.append(neighbor)
            frontier = nxt
        return dist
"""

POPLEFT_BFS = """
    from collections import deque
    import numpy as np

    def bfs(adj, source, num):
        dist = np.full(num, np.inf)
        dist[source] = 0.0
        pending = deque([source])
        while pending:
            vertex = pending.popleft()
            for neighbor in adj[vertex]:
                if np.isinf(dist[neighbor]):
                    dist[neighbor] = dist[vertex] + 1.0
                    pending.append(neighbor)
        return dist
"""


def test_rep014_fires_on_frontier_loop_in_core():
    assert "REP014" in codes(FRONTIER_BFS, path=CORE_PATH)


def test_rep014_fires_on_popleft_queue_bfs():
    assert "REP014" in codes(POPLEFT_BFS, path=CORE_PATH)


def test_rep014_fires_once_per_bfs_despite_nested_loops():
    diags = codes(FRONTIER_BFS, path=CORE_PATH)
    assert diags.count("REP014") == 1


def test_rep014_covers_analysis_and_faults_packages():
    assert "REP014" in codes(FRONTIER_BFS, path=LIB_PATH)
    assert "REP014" in codes(POPLEFT_BFS, path=FAULTS_PATH)


def test_rep014_exempts_the_kernel_package_itself():
    assert "REP014" not in codes(FRONTIER_BFS, path=KERNELS_PATH)


def test_rep014_quiet_outside_kernel_client_packages():
    assert "REP014" not in codes(FRONTIER_BFS, path="src/repro/simulation/fake.py")


def test_rep014_quiet_on_frontier_without_distances():
    # A wavefront that only collects reachability (no distance array) is
    # not the kernel hot path — e.g. connectivity checks.
    src = """
        def reachable(adj, source):
            seen = {source}
            frontier = [source]
            while frontier:
                nxt = []
                for vertex in frontier:
                    for neighbor in adj[vertex]:
                        if neighbor not in seen:
                            seen.add(neighbor)
                            nxt.append(neighbor)
                frontier = nxt
            return seen
    """
    assert "REP014" not in codes(src, path=CORE_PATH)


def test_rep014_quiet_on_distance_store_without_wavefront():
    src = """
        def fill(dist, rows, block):
            for i, row in enumerate(rows):
                dist[row] = block[i]
    """
    assert "REP014" not in codes(src, path=CORE_PATH)


def test_rep014_waiver():
    src = """
        import numpy as np

        def bfs(adj, source, num):
            dist = np.full(num, np.inf)
            frontier = [source]
            while frontier:  # repro-lint: disable=REP014 -- pedagogical reference
                nxt = []
                for vertex in frontier:
                    for neighbor in adj[vertex]:
                        if np.isinf(dist[neighbor]):
                            dist[neighbor] = dist[vertex] + 1.0
                            nxt.append(neighbor)
                frontier = nxt
            return dist
    """
    assert "REP014" not in codes(src, path=CORE_PATH)
