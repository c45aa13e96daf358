"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package lists the names it re-exports in one table, submodule to names,
and :func:`export_lazily` resolves each name from its submodule when it is
accessed, so importing a package imports none of its submodules.  A command
thus loads only the modules it runs: ``repro query`` starts on
:mod:`repro.serve.client`, and NumPy loads with the first module that
computes.

A name is looked up in its submodule on every access, so it always names
what the submodule holds now (a test's monkeypatch, a tracer's wrapper).
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any

__all__ = ["export_lazily"]


class _Package(ModuleType):
    """A package whose submodule imports never rebind an exported name.

    The import system binds each submodule on its package by name, which
    would replace an export named like its submodule (the builder
    ``repro.topologies.torus.torus``) with the module.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if not (isinstance(value, ModuleType) and name in vars(self).get("__all__", ())):
            super().__setattr__(name, value)


def export_lazily(package: str, exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Install ``package``'s ``__getattr__`` and ``__dir__`` over ``exports``.

    ``exports`` maps each submodule to the names it provides; returns every
    name, in table order, for ``__all__``.
    """
    module = sys.modules[package]
    namespace = vars(module)
    sources = {name: source for source, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        __import__(source)  # not importlib.import_module: -X importtime logs this
        return getattr(sys.modules[source], name)

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | sources.keys())

    namespace.update(__getattr__=__getattr__, __dir__=__dir__)
    module.__class__ = _Package
    return list(sources)
