"""Fixture tests for the flow rules REP010-REP013.

Snippets are written into a ``repro/...`` shaped tmp tree so module
names resolve the way they do for the shipped package, then linted
through :func:`repro.devtools.flow.flow_lint` (whole-program, so
cross-module cases genuinely cross modules).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools.flow import FlowStats, flow_lint
from repro.devtools.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REGISTRY = frozenset({"sim.cycles", "sim.packets"})


def write_tree(tmp_path: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
        paths.append(path)
    return paths


def flow_codes(
    tmp_path: Path, files: dict[str, str], **kwargs
) -> tuple[list[str], list, FlowStats]:
    diags, stats = flow_lint(write_tree(tmp_path, files), **kwargs)
    assert stats.converged, "dataflow must reach a fixed point on fixtures"
    return [d.code for d in diags], diags, stats


# --------------------------------------------------------------------- #
# REP010 — transitive ambient entropy
# --------------------------------------------------------------------- #


def test_rep010_none_default_reaching_default_rng(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/core/mod.py": """
                import numpy as np

                def make(seed=None):
                    return np.random.default_rng(seed)
                """
        },
    )
    assert codes == ["REP010"]


def test_rep010_cross_module_none_default(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/core/helpers.py": """
                import numpy as np

                def as_generator(seed=None):
                    return np.random.default_rng(seed)
                """,
            "repro/core/solver.py": """
                from repro.core.helpers import as_generator

                def solve(graph):
                    rng = as_generator()
                    return rng.random()
                """,
        },
    )
    # One finding at the carrier's own default, one at the no-arg caller
    # two modules away — the cross-module view REP001 cannot have.
    assert codes == ["REP010", "REP010"]
    caller = [d for d in diags if "solver" in d.path]
    assert caller and "defaults 'seed' to None" in caller[0].message


def test_rep010_ambient_always_callee(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/core/helpers.py": """
                import random

                def entropy_draw():
                    return random.random()
                """,
            "repro/core/solver.py": """
                from repro.core.helpers import entropy_draw

                def solve(graph):
                    return entropy_draw()
                """,
        },
    )
    # The random.* call site itself is REP001's; the *caller* a module
    # away is REP010's — it draws ambient entropy with no local tell.
    assert "REP010" in codes
    assert any("unconditionally" in d.message for d in diags)


def test_rep010_respects_is_not_none_guard(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/core/mod.py": """
                import numpy as np

                def make(seed=None):
                    if seed is not None:
                        return np.random.default_rng(seed)
                    return np.random.default_rng(12345)
                """
        },
    )
    assert codes == []


def test_rep010_respects_or_zero_and_conditional(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/core/mod.py": """
                import numpy as np

                def make(seed=None):
                    return np.random.default_rng(seed or 0)

                def make2(seed=None):
                    return np.random.default_rng(0 if seed is None else seed)
                """
        },
    )
    assert codes == []


def test_rep010_explicit_none_argument(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/core/helpers.py": """
                import numpy as np

                def as_generator(seed=0):
                    return np.random.default_rng(seed)
                """,
            "repro/core/solver.py": """
                from repro.core.helpers import as_generator

                def solve(graph):
                    return as_generator(None).random()
                """,
        },
    )
    assert "REP010" in codes
    assert any("explicit None" in d.message for d in diags)


def test_rep010_scoped_to_deterministic_packages(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/devtools_extra/mod.py": """
                import numpy as np

                def make(seed=None):
                    return np.random.default_rng(seed)
                """
        },
    )
    assert codes == []


def test_rep010_bare_seedsequence_fires_bare_default_rng_does_not(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/core/mod.py": """
                import numpy as np

                def spawnable():
                    return np.random.SeedSequence()

                def rep001_territory():
                    return np.random.default_rng()
                """
        },
    )
    # Bare default_rng() stays REP001's call-site finding.
    assert codes == ["REP010"]
    assert "SeedSequence" in diags[0].message


# --------------------------------------------------------------------- #
# REP011 — cross-process fan-out hazards
# --------------------------------------------------------------------- #


def test_rep011_lambda_and_nested_def_submission(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/campaign/mod.py": """
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(points):
                    def work(p):
                        return p * 2
                    with ProcessPoolExecutor() as pool:
                        a = pool.submit(lambda p: p, points[0])
                        b = pool.submit(work, points[1])
                    return a, b
                """
        },
    )
    assert codes == ["REP011", "REP011"]
    assert any("lambda" in d.message for d in diags)
    assert any("nested function 'work'" in d.message for d in diags)


def test_rep011_completion_order_folds(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/campaign/mod.py": """
                from concurrent.futures import ProcessPoolExecutor, wait, as_completed

                def gather(points, work):
                    results = []
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, p) for p in points]
                        for future in as_completed(futures):
                            results.append(future.result())
                        done, not_done = wait(futures)
                        for future in done:
                            results.extend(future.result())
                    return results
                """
        },
    )
    assert codes.count("REP011") == 2
    assert all("completion" in d.message for d in diags)


def test_rep011_quiet_on_dispatch_order_iteration(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/campaign/mod.py": """
                from concurrent.futures import ProcessPoolExecutor, wait

                def gather(points, work):
                    results = []
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, p) for p in points]
                        wait(futures)
                        for future in futures:
                            results.append(future.result())
                    return results
                """
        },
    )
    assert codes == []


# --------------------------------------------------------------------- #
# REP012 — CFG-exact restore safety
# --------------------------------------------------------------------- #


def test_rep012_straight_line_escape(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/analysis/mod.py": """
                def probe(graph, a, b, measure):
                    graph.remove_edge(a, b)
                    score = measure(graph)
                    graph.add_edge(a, b)
                    return score
                """
        },
    )
    assert codes == ["REP012"]
    assert "add_edge" in diags[0].message


def test_rep012_quiet_with_try_finally(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/analysis/mod.py": """
                def probe(graph, a, b, measure):
                    graph.remove_edge(a, b)
                    try:
                        return measure(graph)
                    finally:
                        graph.add_edge(a, b)
                """
        },
    )
    assert codes == []


def test_rep012_quiet_when_arguments_differ(tmp_path):
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/analysis/mod.py": """
                def rewire(graph, a, b, c, d, measure):
                    graph.remove_edge(a, b)
                    measure(graph)
                    graph.add_edge(c, d)
                """
        },
    )
    assert codes == []


def test_rep012_quiet_on_rebuild_without_restore_intent(tmp_path):
    # Two independent loops: the mutation's own paths never restore the
    # same edge they removed mid-measurement; that is reconstruction,
    # not a mutate/measure/restore protocol, and must stay quiet.
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/analysis/mod.py": """
                def rebuild(graph, removed, added):
                    for a, b in removed:
                        graph.remove_edge(a, b)
                    for a, b in added:
                        graph.add_edge(a, b)
                """
        },
    )
    assert codes == []


def test_rep012_catches_seeded_fixture_rep009_misses():
    # The removed loop-only rule REP009 had no loop to match here; the
    # CFG-exact REP012 flags the unprotected probe but not the
    # try/finally-protected twin.
    fixture = FIXTURES / "repro" / "analysis" / "restore_gap.py"
    source = fixture.read_text(encoding="utf-8")
    diags, stats = flow_lint([fixture])
    assert stats.converged
    rep012 = [d for d in diags if d.code == "REP012"]
    assert len(rep012) == 1
    protected_line = source[: source.index("def probe_protected")].count("\n") + 1
    assert rep012[0].line < protected_line  # the unprotected probe, not its twin


# --------------------------------------------------------------------- #
# REP013 — instrument-name integrity
# --------------------------------------------------------------------- #


def test_rep013_literals_constants_and_fstrings(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/simulation/mod.py": """
                _CTR = "sim.cycles"
                _BAD = "sim.not_registered"

                def record(tel, kind, name):
                    tel.counter("sim.cycles").inc()      # registered literal
                    tel.counter(_CTR).inc()              # registered constant
                    tel.counter(_BAD).inc()              # unregistered constant
                    tel.counter(f"sim.{kind}").inc()     # open-ended f-string
                    tel.gauge("sim.rogue").set(1.0)      # unregistered literal
                    tel.timer(name)                      # local variable
                """
        },
        registry=REGISTRY,
    )
    assert codes == ["REP013"] * 4
    messages = "\n".join(d.message for d in diags)
    assert "sim.not_registered" in messages
    assert "f-string" in messages
    assert "sim.rogue" in messages
    assert "'name'" in messages


def test_rep013_literal_dict_dispatch(tmp_path):
    codes, diags, _ = flow_codes(
        tmp_path,
        {
            "repro/simulation/mod.py": """
                _OK = {"a": "sim.cycles", "b": "sim.packets"}
                _BAD = {"a": "sim.cycles", "b": "sim.rogue"}

                def record(tel, kind):
                    tel.counter(_OK[kind]).inc()
                    tel.counter(_BAD[kind]).inc()
                """
        },
        registry=REGISTRY,
    )
    assert codes == ["REP013"]
    assert "sim.rogue" in diags[0].message


def test_rep013_exempt_packages_and_missing_registry(tmp_path):
    files = {
        "repro/obs/sink.py": """
            def flush(tel):
                tel.counter("not.registered").inc()
            """
    }
    codes, _, _ = flow_codes(tmp_path, files, registry=REGISTRY)
    assert codes == []  # repro.obs is exempt
    codes, _, _ = flow_codes(
        tmp_path,
        {
            "repro/simulation/late.py": """
                def record(tel):
                    tel.counter("whatever").inc()
                """
        },
        registry=None,
    )
    assert codes == []  # no registry in the tree -> rule stands down


# --------------------------------------------------------------------- #
# Engine accounting / select plumbing
# --------------------------------------------------------------------- #


def test_flow_stats_accounting_over_fixture_tree():
    files = sorted(FIXTURES.rglob("*.py"))
    diags, stats = flow_lint(files)
    assert stats.converged
    assert stats.functions_analyzed >= 5
    assert stats.summary_rounds >= 1
    codes = {d.code for d in diags}
    assert {"REP010", "REP011", "REP012", "REP013"} <= codes


def test_flow_select_restricts_rules(tmp_path):
    files = sorted(FIXTURES.rglob("*.py"))
    diags, _ = flow_lint(files, select={"REP012"})
    assert {d.code for d in diags} == {"REP012"}


def test_lint_paths_merges_tiers_in_sorted_order(tmp_path):
    paths = write_tree(
        tmp_path,
        {
            "repro/core/zz_mod.py": """
                import random
                import numpy as np

                def make(seed=None):
                    random.random()
                    return np.random.default_rng(seed)
                """
        },
    )
    diags = lint_paths([str(p) for p in paths])
    codes = [d.code for d in diags]
    assert "REP001" in codes and "REP010" in codes  # both passes ran
    assert [d.sort_key() for d in diags] == sorted(d.sort_key() for d in diags)
