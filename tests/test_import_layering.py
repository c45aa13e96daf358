"""Import layering: a command imports only the modules it runs.

``repro query`` must start without NumPy, asyncio or the solver, and
``repro serve`` without NumPy; every package resolves its public names
from its submodules on first access.  Each check of what gets imported
runs in a fresh interpreter, since this one has imported everything long
ago.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The packages whose ``__init__`` re-exports names from its submodules.
PACKAGES = (
    "repro",
    "repro.core",
    "repro.campaign",
    "repro.analysis",
    "repro.serve",
    "repro.compose",
    "repro.topologies",
    "repro.obs",
)


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(statements: str) -> list[str]:
    """Every module a new interpreter holds after ``statements``."""
    return run_fresh(f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")


def under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(f"{package}.")]


def test_query_command_loads_no_numpy_asyncio_or_core():
    loaded = modules_after(
        "import repro.cli; repro.cli.build_parser(); import repro.serve.client"
    )
    assert "repro.serve.client" in loaded
    for package in ("numpy", "asyncio", "repro.core"):
        assert under(loaded, package) == [], package


def test_server_and_store_load_no_numpy():
    loaded = modules_after(
        "import repro.cli; repro.cli.build_parser(); import repro.serve.client\n"
        "import repro.serve.server, repro.campaign.store"
    )
    assert "repro.serve.service" in loaded
    assert under(loaded, "numpy") == []


def test_bare_import_loads_no_subpackage():
    assert under(modules_after("import repro"), "repro") == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_to_its_submodule_object(package):
    problems = run_fresh(
        f"""
        import importlib, json, sys

        package = importlib.import_module({package!r})
        listed = dir(package)
        problems = [f"{{name}}: not in dir()" for name in package.__all__ if name not in listed]
        for name in package.__all__:
            if name.startswith("__"):
                continue  # the package's own (repro.__version__)
            value = getattr(package, name)
            owners = [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith({package!r} + ".")
                and vars(module).get(name, object()) is value
            ]
            if not owners:
                problems.append(f"{{name}}: no submodule holds this object")
        try:
            package.no_such_name
            problems.append("no_such_name: resolved")
        except AttributeError:
            pass
        print(json.dumps(problems))
        """
    )
    assert problems == []


def test_a_builder_submodule_does_not_shadow_its_builder():
    # Importing repro.topologies.torus binds the module on the package by
    # name; the exported builder of the same name must still win.
    assert run_fresh(
        """
        import json
        import repro.topologies.torus
        from repro.topologies import build_topology, torus
        graph, spec = build_topology("mesh", dimension=2, base=2, radix=6)
        from repro.topologies import mesh
        print(json.dumps([torus.__module__, mesh.__module__, callable(torus)]))
        """
    ) == ["repro.topologies.torus", "repro.topologies.mesh", True]


def test_a_public_name_shows_what_its_submodule_holds_now(monkeypatch):
    # Resolved on every access, never cached: a wrapper installed on the
    # submodule (a test's monkeypatch, the e2e tracer's) shows through.
    import repro.core.solver

    def wrapped(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(repro.core.solver, "solve_orp", wrapped)
    assert repro.solve_orp is wrapped
    assert repro.core.solve_orp is wrapped
    monkeypatch.undo()
    assert repro.solve_orp is repro.core.solver.solve_orp is not wrapped
