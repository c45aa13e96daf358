"""Tests for the text report ``repro-lint`` prints."""

from __future__ import annotations

from repro.devtools.lint import main

SOURCE = """\
import random


def f():
    return random.random()


def g(xs):
    return random.choice(xs)


def h(xs):
    return random.choice(xs)  # repro-lint: disable=REP001 -- demo only
"""


def test_render_text_summary_and_suppression_note(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(SOURCE)
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")

    assert main([str(mod)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # One path:line:col: CODE line per finding, then the summary.  The
    # waived finding is neither printed nor counted, and no note about
    # suppressed findings is added.
    assert [line.split(" ")[0] for line in lines[:-1]] == [f"{mod}:5:11:", f"{mod}:9:11:"]
    assert all(" REP001 " in line for line in lines[:-1])
    assert lines[-1] == "repro-lint: 2 violation(s) in 1 file(s)"
    assert not any("suppressed" in line for line in lines)

    assert main([str(clean)]) == 0
    assert capsys.readouterr().out == ""
