"""Whole-program project index and per-function summaries.

:func:`build_index` parses every file handed to the flow pass and builds
a :class:`ProjectIndex`: module infos keyed by dotted name, an import
graph (who binds what from whom), module-level constants, and one
:class:`FunctionInfo` per function/method.

On top of the index, :func:`compute_ambient_summaries` iterates a small
fixed point over the call graph to label every function's *ambient
entropy* behaviour:

- ``ambient_always`` — calling it draws OS entropy unconditionally
  (e.g. it calls ``np.random.default_rng()`` with no argument).
- ``ambient_if_none`` — the set of parameters which, when ``None``,
  make the call draw OS entropy (e.g. ``repro.utils.rng.as_generator``
  is ambient iff its ``seed`` argument is ``None``).

The summaries are what let REP010 see through helper layers: a caller
passing a may-be-None value into ``as_generator`` inherits the taint
even though the ``default_rng`` call lives two modules away.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.lint import (  # repro-lint: disable=REP005 -- flow is devtools-internal
    _module_name_for,
)

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
    "compute_ambient_summaries",
]

FunctionLike = ast.FunctionDef | ast.AsyncFunctionDef


def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method plus its computed summaries."""

    name: str  # "anneal" or "BaseNetworkModel.__init__"
    module: str
    node: FunctionLike
    cls: str | None = None
    bases: tuple[str, ...] = ()
    params: list[str] = field(default_factory=list)
    #: parameters whose declared default is a literal ``None``.
    none_defaults: frozenset[str] = frozenset()
    ambient_always: bool = False
    ambient_if_none: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Parsed module: tree, import bindings, constants, functions."""

    module: str
    path: str
    source: str
    tree: ast.Module
    #: local name -> (module, symbol) for ``from m import s [as local]``;
    #: symbol is None for plain ``import m [as local]``.
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    #: module-level single-target assignments (name -> value expression).
    constants: dict[str, ast.expr] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    random_aliases: set[str] = field(default_factory=set)
    numpy_aliases: set[str] = field(default_factory=set)
    np_random_aliases: set[str] = field(default_factory=set)


def _collect_params(fn: FunctionLike) -> tuple[list[str], frozenset[str]]:
    args = fn.args
    params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    positional = [*args.posonlyargs, *args.args]
    defaults = [
        *zip(reversed(positional), reversed(args.defaults)),
        *zip(args.kwonlyargs, args.kw_defaults),
    ]
    none_defaults = frozenset(
        arg.arg
        for arg, default in defaults
        if isinstance(default, ast.Constant) and default.value is None
    )
    return params, none_defaults


def _build_module(path: Path, source: str, tree: ast.Module) -> ModuleInfo:
    info = ModuleInfo(
        module=_module_name_for(path), path=str(path), source=source, tree=tree
    )
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                info.constants[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                info.constants[node.target.id] = node.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params, none_defaults = _collect_params(node)
            info.functions[node.name] = FunctionInfo(
                name=node.name,
                module=info.module,
                node=node,
                params=params,
                none_defaults=none_defaults,
            )
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = node
            bases = tuple(
                base.id for base in node.bases if isinstance(base, ast.Name)
            )
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params, none_defaults = _collect_params(member)
                    qual = f"{node.name}.{member.name}"
                    info.functions[qual] = FunctionInfo(
                        name=qual,
                        module=info.module,
                        node=member,
                        cls=node.name,
                        bases=bases,
                        params=params,
                        none_defaults=none_defaults,
                    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                info.imports[bound] = (alias.name, None)
                if alias.name == "random":
                    info.random_aliases.add(bound)
                elif alias.name in ("numpy", "numpy.random"):
                    info.numpy_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                info.imports[bound] = (node.module, alias.name)
                if node.module == "numpy" and alias.name == "random":
                    info.np_random_aliases.add(bound)
    return info


@dataclass
class ProjectIndex:
    """Everything the flow rules know about the linted project."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    summary_rounds: int = 0

    # -- call resolution ------------------------------------------------ #

    def _function_in(self, module: str, symbol: str) -> FunctionInfo | None:
        info = self.modules.get(module)
        if info is None:
            return None
        fn = info.functions.get(symbol)
        if fn is not None:
            return fn
        if symbol in info.classes:
            return info.functions.get(f"{symbol}.__init__")
        return None

    def _resolve_name(
        self, mod: ModuleInfo, name: str
    ) -> FunctionInfo | None:
        fn = mod.functions.get(name)
        if fn is not None:
            return fn
        if name in mod.classes:
            return mod.functions.get(f"{name}.__init__")
        bound = mod.imports.get(name)
        if bound is not None:
            target_module, symbol = bound
            if symbol is not None:
                return self._function_in(target_module, symbol)
        return None

    def resolve_call(
        self, mod: ModuleInfo, call: ast.Call, *, cls: ast.ClassDef | None = None
    ) -> tuple[FunctionInfo, int] | None:
        """Resolve a call to a known function; returns (info, arg offset).

        The offset is 1 for constructor and ``super().__init__`` calls
        (the implicit ``self``), 0 otherwise.  Unresolvable calls (bound
        methods, subscripts, ...) return None.
        """
        func = call.func
        if isinstance(func, ast.Name):
            fn = self._resolve_name(mod, func.id)
            if fn is None:
                return None
            offset = 1 if fn.name.endswith(".__init__") else 0
            return fn, offset
        if isinstance(func, ast.Attribute):
            # super().__init__(...) — resolve against the first base class.
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and cls is not None
            ):
                for base in cls.bases:
                    if isinstance(base, ast.Name):
                        target = self._resolve_name(mod, f"{base.id}.{func.attr}")
                        if target is None:
                            base_fn = self._resolve_name(mod, base.id)
                            if base_fn is not None and func.attr == "__init__":
                                target = base_fn
                        if target is not None:
                            return target, 1
                return None
            chain = _dotted(func)
            if chain is not None and len(chain) == 2:
                bound = mod.imports.get(chain[0])
                if bound is not None and bound[1] is None:
                    fn = self._function_in(bound[0], chain[1])
                    if fn is not None:
                        offset = 1 if fn.name.endswith(".__init__") else 0
                        return fn, offset
        return None

    def argument_for(
        self,
        callee: FunctionInfo,
        offset: int,
        call: ast.Call,
        param: str,
    ) -> ast.expr | None:
        """The expression passed for ``param``, or None when defaulted."""
        try:
            position = callee.params.index(param)
        except ValueError:
            return None
        positional = position - offset
        if 0 <= positional < len(call.args):
            arg = call.args[positional]
            return None if isinstance(arg, ast.Starred) else arg
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
        return None

    # -- the telemetry instrument registry (REP013) ---------------------- #

    def instrument_registry(self) -> frozenset[str] | None:
        """Parse ``repro.obs.names.INSTRUMENTS``; None when absent."""
        info = self.modules.get("repro.obs.names")
        if info is None:
            return None
        value = info.constants.get("INSTRUMENTS")
        if value is None:
            return None
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set")
            and len(value.args) == 1
        ):
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            return None
        names: set[str] = set()
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
        return frozenset(names)


def build_index(files: list[Path]) -> ProjectIndex:
    """Parse ``files`` and build the project index with summaries."""
    index = ProjectIndex()
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            continue
        info = _build_module(path, source, tree)
        index.modules[info.module] = info
    index.summary_rounds = compute_ambient_summaries(index)
    return index


# --------------------------------------------------------------------- #
# Ambient-entropy summaries
# --------------------------------------------------------------------- #


def entropy_builtin(mod: ModuleInfo, call: ast.Call) -> str | None:
    """Classify a call as a raw entropy source.

    Returns ``"random_module"`` for any ``random.*`` call, or
    ``"default_rng"`` / ``"SeedSequence"`` for the numpy constructors
    (however imported); None otherwise.
    """
    chain = _dotted(call.func)
    if chain is None:
        return None
    if len(chain) == 2 and chain[0] in mod.random_aliases:
        return "random_module"
    tail: str | None = None
    if (
        len(chain) == 3
        and chain[0] in mod.numpy_aliases
        and chain[1] == "random"
    ):
        tail = chain[2]
    elif len(chain) == 2 and chain[0] in mod.np_random_aliases:
        tail = chain[1]
    elif len(chain) == 1:
        bound = mod.imports.get(chain[0])
        if bound is not None and bound[0] in ("numpy.random", "numpy"):
            tail = bound[1]
    if tail in ("default_rng", "SeedSequence"):
        return tail
    return None


def _scan_ambient(
    index: ProjectIndex, mod: ModuleInfo, fi: FunctionInfo
) -> tuple[bool, set[str]]:
    always = False
    if_none: set[str] = set()
    params = set(fi.params)
    cls = mod.classes.get(fi.cls) if fi.cls else None

    def note_arg(arg: ast.expr | None, *, missing_means_always: bool) -> None:
        nonlocal always
        if arg is None:
            if missing_means_always:
                always = True
            return
        if isinstance(arg, ast.Constant) and arg.value is None:
            always = True
        elif isinstance(arg, ast.Name) and arg.id in params:
            if_none.add(arg.id)

    for node in ast.walk(fi.node):
        if not isinstance(node, ast.Call):
            continue
        kind = entropy_builtin(mod, node)
        if kind == "random_module":
            always = True
            continue
        if kind in ("default_rng", "SeedSequence"):
            arg = node.args[0] if node.args else None
            note_arg(arg, missing_means_always=not node.keywords)
            continue
        resolved = index.resolve_call(mod, node, cls=cls)
        if resolved is None:
            continue
        callee, offset = resolved
        if callee.ambient_always:
            always = True
            continue
        for param in callee.ambient_if_none:
            arg = index.argument_for(callee, offset, node, param)
            if arg is None:
                if param in callee.none_defaults:
                    always = True
            else:
                note_arg(arg, missing_means_always=False)
    return always, if_none


def compute_ambient_summaries(index: ProjectIndex, *, max_rounds: int = 25) -> int:
    """Fixed point over the call graph; returns the rounds taken."""
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        rounds += 1
        changed = False
        for mod in index.modules.values():
            for fi in mod.functions.values():
                always, if_none = _scan_ambient(index, mod, fi)
                if always and not fi.ambient_always:
                    fi.ambient_always = True
                    changed = True
                if not if_none <= fi.ambient_if_none:
                    fi.ambient_if_none |= if_none
                    changed = True
    return rounds
