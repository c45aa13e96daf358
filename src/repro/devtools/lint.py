"""``repro-lint`` — domain-specific static analysis for host-switch graph code.

The ORP reproduction's correctness hinges on invariants the paper states
but Python cannot express: every run must be replayable from one seed,
every constructed :class:`~repro.core.hostswitch.HostSwitchGraph` must
satisfy its radix accounting, and h-ASPL evaluation must go through the
one batched BFS kernel (tiny metric errors flip optimality conclusions).
This module checks those conventions with a pure-stdlib AST pass.

Rules
-----
REP001
    Unseeded / global RNG use: calls through the ``random`` module or
    ``numpy.random`` module functions (instead of an injected
    :class:`numpy.random.Generator`), zero-argument ``default_rng()``,
    and calls to known stochastic entry points without an explicit
    ``seed=`` / ``rng=`` keyword.
REP002
    A function that builds a ``HostSwitchGraph``, mutates it
    (``add_switch_edge`` / ``attach_host`` / ``move_host`` / ...), and
    returns it without calling ``validate()``.
REP003
    Shortest-path / APSP routines invoked inside a Python loop, or twice
    on the same graph in straight-line code, where one batched pass
    (``switch_distance_matrix`` / ``KERNEL.bfs_distances``) would do.
REP004
    Float ``==`` / ``!=`` comparisons involving h-ASPL, latency, or
    diameter metric values (including comparisons against ``inf``).
REP005
    Cross-module access to private internals: importing underscore names
    from another ``repro`` module, touching ``HostSwitchGraph`` storage
    slots outside ``repro/core/``, or calling underscore methods on
    objects whose class lives in another ``repro`` module.
REP006
    Exact h-ASPL evaluation (``h_aspl`` / ``h_aspl_and_diameter``) inside
    a loop body in ``repro.core`` modules, where the delta-repairing
    :class:`repro.core.incremental.IncrementalEvaluator` applies.  Fires
    instead of REP003 for those calls; hot loops must go through
    propose/commit/rollback.
REP007
    Ad-hoc output or timing inside the instrumented packages
    (``repro.core`` / ``repro.simulation`` / ``repro.partition``): bare
    ``print(...)`` calls, and ``time.time()`` / ``time.perf_counter()``
    (however imported).  Library code there reports through
    :mod:`repro.obs` — ``repro.obs.clock()`` for intervals, registry
    events/spans/timers for structured output — so runs stay observable
    through one layer.
REP008
    Direct artifact writes inside :mod:`repro.campaign` outside
    ``store.py``: ``open(...)``, ``json.dump(...)``, and
    ``write_text``/``write_bytes`` calls.  The content-addressed store is
    the package's single write path — bypassing it breaks atomicity
    (temp-file + rename) and digest bookkeeping, which kill/resume
    correctness depends on.
REP014
    Hand-rolled frontier BFS inside ``repro.core`` / ``repro.analysis``
    / ``repro.faults`` outside :mod:`repro.core.kernels`: a loop that
    advances a wavefront (assignment to a ``*frontier*`` name or a
    ``deque.popleft()``) while producing distances (subscript store
    into a ``*dist*`` array or an ``isinf`` reachedness test).  The
    kernel layer's ``KERNEL.bfs_distances`` is the one BFS
    implementation — batched, bit-parallel, and property-tested
    bit-identical to the reference kernel; private re-implementations
    fork that contract.

Flow rules (REP010-REP013)
--------------------------
Four further rules run on the whole-program dataflow pass built by
:mod:`repro.devtools.flow` (CFG + taint lattice + cross-module
summaries); they are documented in that package and in DESIGN.md.
Every run applies both passes.  REP001 owns RNG call sites everywhere;
REP010 owns may-be-None seeds that reach ambient entropy *transitively*
inside the deterministic packages.  REP012 checks restore safety on
every exception path, in every package, including the bulk
``remove_switch`` that any edge add on its receiver restores.

Waivers
-------
A violation can be silenced with a trailing (or immediately preceding)
comment naming the rule, ideally with a justification::

    value = h_aspl(work)  # repro-lint: disable=REP003 -- graph differs per trial

``# repro-lint: disable-file=REP001`` anywhere in a file waives the rule
for the whole file.

Usage
-----
``repro-lint [PATHS...]`` (console script) or
``python -m repro.devtools.lint [PATHS...]``.  Exits 0 when clean, 1 when
any diagnostic fires, 2 on usage errors (an unknown rule, a missing
path, or two files that map to one dotted module name).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Diagnostic",
    "DuplicateModuleError",
    "FLOW_RULES",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "main",
]


RULES: dict[str, str] = {
    "REP001": "unseeded or global RNG use (inject a numpy.random.Generator)",
    "REP002": "HostSwitchGraph constructed and mutated but returned without validate()",
    "REP003": "shortest-path routine called in a loop / repeatedly where one batched "
    "pass (switch_distance_matrix / KERNEL.bfs_distances) suffices",
    "REP004": "float ==/!= comparison on h-ASPL / latency / diameter metric values",
    "REP005": "private internals accessed across module boundaries",
    "REP006": "exact h-ASPL evaluated in a repro.core loop where "
    "IncrementalEvaluator (propose/commit/rollback) applies",
    "REP007": "print()/time.time()/time.perf_counter() in an instrumented package "
    "bypasses repro.obs (use clock(), spans/timers, or registry events)",
    "REP008": "direct file write in repro.campaign outside store.py bypasses the "
    "content-addressed store (the package's single atomic write path)",
    "REP010": "ambient OS entropy (default_rng()/SeedSequence()/random.* or a "
    "may-be-None seed) transitively reaches a deterministic-package entry point "
    "(flow rule)",
    "REP011": "cross-process fan-out hazard: unpicklable capture into "
    "ProcessPoolExecutor.submit/map, or results folded in nondeterministic "
    "completion order (flow rule)",
    "REP012": "graph mutation may escape on an exception path before its paired "
    "restore runs (CFG-exact, flow rule)",
    "REP013": "telemetry instrument name is not a literal from the "
    "repro.obs.names.INSTRUMENTS registry (flow rule; keeps repro.obs/v1 closed)",
    "REP014": "hand-rolled frontier-BFS loop outside repro.core.kernels "
    "(route through repro.core.kernels.KERNEL.bfs_distances, the one batched kernel)",
}

#: Rules produced by the whole-program flow rules (repro.devtools.flow).
FLOW_RULES = frozenset({"REP010", "REP011", "REP012", "REP013"})

# The one repro.campaign module allowed to write artifact files (REP008).
_CAMPAIGN_WRITE_MODULE = "repro.campaign.store"
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

# Packages whose library code must report through repro.obs (REP007).
_OBS_PACKAGES = ("repro.core", "repro.simulation", "repro.partition")

# time-module functions REP007 flags (repro.obs.clock wraps perf_counter).
_TIME_FUNCS = frozenset({"time", "perf_counter"})

# HostSwitchGraph mutation methods (REP002) and helpers that mutate the
# graph passed as their first argument (the host placement helpers return
# attachment lists and mutate nothing).
_MUTATORS = frozenset(
    {"add_switch_edge", "remove_switch_edge", "attach_host", "move_host", "move_any_host"}
)
_MUTATION_HELPERS = frozenset({"_add_random_edges"})

# Shortest-path / APSP entry points (REP003).
_DIST_FUNCS = frozenset(
    {
        "h_aspl",
        "diameter",
        "switch_aspl",
        "h_aspl_and_diameter",
        "switch_distance_matrix",
        "host_distance_matrix",
        "single_source_host_distances",
        "shortest_path",
    }
)

# Exact h-ASPL entry points with an incremental alternative (REP006).
_INCREMENTAL_FUNCS = frozenset({"h_aspl", "h_aspl_and_diameter"})

# Metric-producing calls and identifier hints (REP004).
_METRIC_FUNCS = frozenset(
    {
        "h_aspl",
        "diameter",
        "switch_aspl",
        "h_aspl_and_diameter",
        "h_aspl_from_distances",
        "h_aspl_from_weighted_sum",
    }
)
_METRIC_NAME_HINTS = ("aspl", "latency")
_METRIC_NAME_EXACT = frozenset({"diameter"})

# Stochastic entry points that must receive an explicit seed= / rng=
# keyword so whole runs stay replayable (REP001).
_STOCHASTIC_FUNCS = frozenset(
    {
        "jellyfish",
        "random_shortcut_ring",
        "random_regular_switch_topology",
        "random_regular_host_switch_graph",
        "random_host_switch_graph",
        "anneal",
        "solve_orp",
        "solve_odp",
        "rank_to_host_mapping",
        "run_traffic",
        "optimize_placement",
        "edge_failure_impact",
        "switch_failure_impact",
        "failure_sweep",
        "partition_host_switch",
        "valiant_switch_route",
    }
)
_SEED_KEYWORDS = frozenset({"seed", "rng"})

# Packages whose BFS must go through repro.core.kernels (REP014); the
# kernel package itself is the one place allowed to roll its own.
_KERNEL_CLIENT_PACKAGES = ("repro.core", "repro.analysis", "repro.faults")
_KERNEL_HOME_PACKAGE = "repro.core.kernels"

# numpy.random attributes that are fine to reference (they construct or
# name generator machinery rather than draw from hidden global state).
_NP_RANDOM_ALLOWED = frozenset(
    {"Generator", "default_rng", "SeedSequence", "BitGenerator", "RandomState"}
)

# HostSwitchGraph.__slots__ — touching these outside repro/core is REP005.
# A test pins this set equal to the class's slots.
_HOSTSWITCH_SLOTS = frozenset(
    {
        "_adj",
        "_csr_cache",
        "_csr_version",
        "_host_switch",
        "_hosts_by_switch",
        "_hosts_per_switch",
        "_num_switch_edges",
        "_radix",
    }
)

_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Z0-9, ]+)"
)


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, renderable as ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


# --------------------------------------------------------------------- #
# Small AST helpers
# --------------------------------------------------------------------- #


def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _call_tail(call: ast.Call) -> str | None:
    """The terminal name of a call: ``f`` for ``f(...)`` and ``x.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_float_inf(node: ast.expr) -> bool:
    """Matches ``float("inf")``, ``math.inf``, ``np.inf`` / ``numpy.inf``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "float" and len(node.args) == 1:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and arg.value in ("inf", "-inf")
    chain = _dotted(node)
    if chain and len(chain) == 2 and chain[1] in ("inf", "infty"):
        return chain[0] in ("math", "np", "numpy")
    return False


def _terminal_name(node: ast.expr) -> str | None:
    """``x`` for a Name, ``attr`` for any attribute chain terminal."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scope_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _annotation_class(node: ast.expr | None) -> str | None:
    """Terminal class name of a parameter annotation (handles strings)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # Forward reference like "RankContext" (possibly dotted).
        return node.value.strip().strip('"').split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Subscript):  # Optional[X] / "X | None" unwrap
        return _annotation_class(node.slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class(node.left)
        return left or _annotation_class(node.right)
    name = _terminal_name(node)
    return name


def _module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at the ``repro`` package.

    A file outside any ``repro`` directory is named by its resolved path
    (``/abs/tests/__init__``), so two such files never share a name.
    """
    resolved = path.resolve()
    parts = list(resolved.parts)
    name = path.stem
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        mods = list(parts[idx:-1]) + ([] if name == "__init__" else [name])
        return ".".join(mods)
    return resolved.with_suffix("").as_posix()


# --------------------------------------------------------------------- #
# Per-file context
# --------------------------------------------------------------------- #


class _FileContext:
    """Imports, aliases, and waivers for one source file."""

    def __init__(self, tree: ast.AST, source: str, path: str) -> None:
        self.path = path
        self.module = _module_name_for(Path(path))
        self.package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        self.random_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.np_random_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        # name bound by `from time import ...` -> original time function
        self.time_func_aliases: dict[str, str] = {}
        # name bound in this module -> repro module it was imported from
        self.repro_imports: dict[str, str] = {}
        self.line_waivers: dict[int, set[str]] = {}
        self.file_waivers: set[str] = set()
        self._collect_imports(tree)
        self._collect_waivers(source)

    def _collect_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_aliases.add(bound)
                    elif alias.name in ("numpy", "numpy.random"):
                        self.numpy_aliases.add(bound)
                    elif alias.name == "time":
                        self.time_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.np_random_aliases.add(alias.asname or alias.name)
                if mod == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCS:
                            self.time_func_aliases[alias.asname or alias.name] = (
                                alias.name
                            )
                if mod == "repro" or mod.startswith("repro."):
                    for alias in node.names:
                        self.repro_imports[alias.asname or alias.name] = mod

    def _collect_waivers(self, source: str) -> None:
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _WAIVER_RE.search(line)
            if not match:
                continue
            codes = {c.strip() for c in match.group(2).split(",") if c.strip()}
            if match.group(1) == "disable-file":
                self.file_waivers |= codes
            else:
                self.line_waivers.setdefault(lineno, set()).update(codes)

    def waived(self, code: str, line: int) -> bool:
        return self.waived_span(code, line, line)

    def waived_span(self, code: str, start: int, end: int) -> bool:
        """Whether ``code`` is waived anywhere on the statement extent.

        A waiver comment counts when it sits on the line before the
        statement or on *any* physical line the statement spans — so a
        trailing ``# repro-lint: disable=...`` on the last line of a
        multi-line call waives rules anchored to the call's first line.
        """
        if code in self.file_waivers:
            return True
        for candidate in range(start - 1, max(start, end) + 1):
            if code in self.line_waivers.get(candidate, set()):
                return True
        return False


# --------------------------------------------------------------------- #
# The analyzer
# --------------------------------------------------------------------- #


class _Analyzer(ast.NodeVisitor):
    def __init__(self, ctx: _FileContext) -> None:
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self._loop_depth = 0
        # Line spans of loops already reported by REP014: nested loops in
        # one BFS (while wavefront: for neighbor: ...) fire only once.
        self._rep014_spans: list[tuple[int, int]] = []
        self._class_stack: list[str] = []
        # name -> repro module of its (annotated or constructed) class,
        # scoped per function; only simple Name receivers are tracked.
        self._foreign_typed: list[dict[str, str]] = [{}]

    # -- reporting ------------------------------------------------------ #

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        end = getattr(node, "end_lineno", None) or line
        col = getattr(node, "col_offset", 0)
        if not self.ctx.waived_span(code, line, end):
            self.diags.append(Diagnostic(self.ctx.path, line, col, code, message))

    # -- scope plumbing ------------------------------------------------- #

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        scope: dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = _annotation_class(arg.annotation)
            mod = self.ctx.repro_imports.get(cls) if cls else None
            if mod and mod != self.ctx.module:
                scope[arg.arg] = mod
        self._foreign_typed.append(scope)
        outer_depth, self._loop_depth = self._loop_depth, 0
        self._check_rep002(node)
        self.generic_visit(node)
        self._loop_depth = outer_depth
        self._foreign_typed.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track `x = SomeImportedClass(...)` for REP005 receiver typing.
        if isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name):
            mod = self.ctx.repro_imports.get(node.value.func.id)
            if mod and mod != self.ctx.module:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._foreign_typed[-1][target.id] = mod
        self.generic_visit(node)

    def _loop_visit(self, node: ast.AST) -> None:
        self._loop_depth += 1
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            self._check_rep014(node)
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = visit_AsyncFor = visit_While = _loop_visit
    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _loop_visit

    # -- REP014 (hand-rolled frontier BFS outside repro.core.kernels) ----- #

    def _check_rep014(self, loop: ast.For | ast.AsyncFor | ast.While) -> None:
        module = self.ctx.module
        if not module.startswith(_KERNEL_CLIENT_PACKAGES):
            return
        if module.startswith(_KERNEL_HOME_PACKAGE):
            return
        start = loop.lineno
        end = getattr(loop, "end_lineno", None) or start
        if any(lo <= start <= hi for lo, hi in self._rep014_spans):
            return  # inner loop of an already-reported BFS
        advances_wavefront = False
        produces_distances = False
        for child in _scope_walk(loop):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    for elt in elts:
                        if isinstance(elt, ast.Name) and "frontier" in elt.id.lower():
                            advances_wavefront = True
                        if isinstance(elt, ast.Subscript):
                            base = _terminal_name(elt.value)
                            if base and "dist" in base.lower():
                                produces_distances = True
            elif isinstance(child, ast.Call):
                tail = _call_tail(child)
                if tail == "popleft":
                    advances_wavefront = True
                elif tail == "isinf":
                    produces_distances = True
        if advances_wavefront and produces_distances:
            self._rep014_spans.append((start, end))
            self._report(
                "REP014",
                loop,
                "loop advances a BFS frontier and fills a distance array by "
                "hand; repro.core.kernels.KERNEL.bfs_distances is the one "
                "BFS implementation (batched, bit-parallel, tested "
                "bit-identical to the reference kernel)",
            )

    # -- REP001 + REP003 (call sites) ----------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rep001_call(node)
        self._check_rep003_loop(node)
        self._check_rep007_call(node)
        self._check_rep008_call(node)
        self.generic_visit(node)

    def _check_rep001_call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if chain:
            # random.<fn>(...)
            if len(chain) == 2 and chain[0] in self.ctx.random_aliases:
                self._report(
                    "REP001",
                    node,
                    f"call to stdlib 'random.{chain[1]}' uses hidden global state; "
                    "inject a seeded numpy.random.Generator instead",
                )
                return
            # np.random.<fn>(...) or (from numpy import random) random.<fn>(...)
            fn: str | None = None
            if (
                len(chain) == 3
                and chain[0] in self.ctx.numpy_aliases
                and chain[1] == "random"
            ):
                fn = chain[2]
            elif len(chain) == 2 and chain[0] in self.ctx.np_random_aliases:
                fn = chain[1]
            if fn is not None:
                if fn not in _NP_RANDOM_ALLOWED:
                    self._report(
                        "REP001",
                        node,
                        f"call to 'numpy.random.{fn}' draws from the global RNG; "
                        "inject a seeded numpy.random.Generator instead",
                    )
                    return
                if fn == "default_rng" and not node.args and not node.keywords:
                    self._report(
                        "REP001",
                        node,
                        "default_rng() without a seed gives an irreproducible "
                        "stream; pass a seed or thread a Generator through",
                    )
                    return
        tail = _call_tail(node)
        if tail in _STOCHASTIC_FUNCS:
            if any(kw.arg is None for kw in node.keywords):
                return  # **kwargs splat: cannot decide statically
            if not any(kw.arg in _SEED_KEYWORDS for kw in node.keywords):
                self._report(
                    "REP001",
                    node,
                    f"stochastic call '{tail}(...)' without an explicit seed=/rng= "
                    "keyword is not replayable",
                )

    def _check_rep003_loop(self, node: ast.Call) -> None:
        tail = _call_tail(node)
        if tail in _DIST_FUNCS and self._loop_depth > 0:
            if tail in _INCREMENTAL_FUNCS and self.ctx.module.startswith(
                "repro.core"
            ):
                # The stronger rule subsumes REP003 for these calls: in core
                # code a loop over exact h-ASPL is the annealing hot path.
                self._report(
                    "REP006",
                    node,
                    f"exact '{tail}' called inside a loop in '{self.ctx.module}'; "
                    "score proposals with repro.core.incremental."
                    "IncrementalEvaluator (propose/commit/rollback) instead",
                )
                return
            self._report(
                "REP003",
                node,
                f"shortest-path routine '{tail}' called inside a loop; hoist it or "
                "use one batched pass over all sources (switch_distance_matrix / "
                "KERNEL.bfs_distances)",
            )

    # -- REP007 (telemetry bypass in instrumented packages) --------------- #

    def _in_obs_package(self) -> bool:
        module = self.ctx.module
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in _OBS_PACKAGES
        )

    def _check_rep007_call(self, node: ast.Call) -> None:
        if not self._in_obs_package():
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                self._report(
                    "REP007",
                    node,
                    f"print() in instrumented package '{self.ctx.module}' "
                    "bypasses repro.obs; emit a registry event or log via the "
                    "caller instead",
                )
                return
            original = self.ctx.time_func_aliases.get(func.id)
            if original is not None:
                self._report(
                    "REP007",
                    node,
                    f"'time.{original}' called in instrumented package "
                    f"'{self.ctx.module}'; use repro.obs.clock() (or a registry "
                    "span/timer) so timing flows through telemetry",
                )
            return
        chain = _dotted(func)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in self.ctx.time_aliases
            and chain[1] in _TIME_FUNCS
        ):
            self._report(
                "REP007",
                node,
                f"'time.{chain[1]}' called in instrumented package "
                f"'{self.ctx.module}'; use repro.obs.clock() (or a registry "
                "span/timer) so timing flows through telemetry",
            )

    # -- REP008 (artifact writes in repro.campaign outside the store) ----- #

    def _check_rep008_call(self, node: ast.Call) -> None:
        module = self.ctx.module
        if not module.startswith("repro.campaign") or module == _CAMPAIGN_WRITE_MODULE:
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self._report(
                "REP008",
                node,
                f"open() in '{module}' bypasses the campaign store; route all "
                "artifact I/O through repro.campaign.store (the atomic write path)",
            )
            return
        if isinstance(func, ast.Attribute):
            if func.attr in _WRITE_METHODS:
                self._report(
                    "REP008",
                    node,
                    f"'.{func.attr}(...)' in '{module}' bypasses the campaign "
                    "store; route all artifact I/O through repro.campaign.store",
                )
                return
            chain = _dotted(func)
            if chain is not None and len(chain) == 2 and chain == ("json", "dump"):
                self._report(
                    "REP008",
                    node,
                    f"json.dump() in '{module}' bypasses the campaign store; "
                    "build dicts and hand them to repro.campaign.store instead",
                )

    # -- REP002 (constructed, mutated, returned unvalidated) ------------- #

    def _check_rep002(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        in_hostswitch_class = bool(
            self._class_stack and self._class_stack[-1] == "HostSwitchGraph"
        )
        constructed: set[str] = set()
        mutated: dict[str, ast.AST] = {}
        validated: set[str] = set()
        returns: list[tuple[str, ast.Return]] = []

        for node in _scope_walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                tail = _call_tail(node.value)
                is_ctor = tail == "HostSwitchGraph" or (
                    in_hostswitch_class
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "cls"
                )
                if is_ctor:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            constructed.add(target.id)
            elif isinstance(node, ast.Call):
                tail = _call_tail(node)
                if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    recv = node.func.value.id
                    if tail in _MUTATORS:
                        mutated.setdefault(recv, node)
                    elif tail == "validate":
                        validated.add(recv)
                elif (
                    tail in _MUTATION_HELPERS
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    mutated.setdefault(node.args[0].id, node)
            elif isinstance(node, ast.Return) and node.value is not None:
                candidates = (
                    node.value.elts
                    if isinstance(node.value, ast.Tuple)
                    else [node.value]
                )
                for cand in candidates:
                    if isinstance(cand, ast.Name):
                        returns.append((cand.id, node))

        for name, ret in returns:
            if name in constructed and name in mutated and name not in validated:
                self._report(
                    "REP002",
                    ret,
                    f"'{name}' is a HostSwitchGraph mutated in '{fn.name}' but "
                    "returned without a validate() call (add one or waive with "
                    "'# repro-lint: disable=REP002 -- <reason>')",
                )

    # -- REP003 straight-line duplicates --------------------------------- #

    def _stmt_dist_calls(self, stmt: ast.stmt) -> list[ast.Call]:
        """Dist-func calls in a statement, not descending into sub-blocks."""
        calls: list[ast.Call] = []
        stack: list[ast.AST] = [stmt]
        first = True
        while stack:
            node = stack.pop()
            # Any nested statement belongs to a sub-block that is scanned as
            # its own block by check_duplicate_dist_calls; skip it here.
            if not first and isinstance(node, ast.stmt):
                continue
            first = False
            if isinstance(node, ast.Call) and _call_tail(node) in _DIST_FUNCS:
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return calls

    def check_duplicate_dist_calls(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                seen_args: dict[str, str] = {}
                for stmt in block:
                    if not isinstance(stmt, ast.stmt):
                        continue
                    for call in self._stmt_dist_calls(stmt):
                        if not call.args or not isinstance(call.args[0], ast.Name):
                            continue
                        arg = call.args[0].id
                        tail = _call_tail(call) or "?"
                        if arg in seen_args:
                            self._report(
                                "REP003",
                                call,
                                f"'{tail}({arg})' repeats an APSP over '{arg}' "
                                f"already computed by '{seen_args[arg]}({arg})' in "
                                "the same block; compute the distance matrix once "
                                "and derive both quantities from it",
                            )
                        else:
                            seen_args[arg] = tail

    # -- REP004 ----------------------------------------------------------- #

    def _is_metric_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return _call_tail(node) in _METRIC_FUNCS
        name = _terminal_name(node)
        if name is None:
            return False
        lowered = name.lower()
        return lowered in _METRIC_NAME_EXACT or any(
            hint in lowered for hint in _METRIC_NAME_HINTS
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            metric = any(self._is_metric_expr(x) for x in pair)
            inf = any(_is_float_inf(x) for x in pair)
            # Comparing against a string constant is never a float compare.
            stringy = any(
                isinstance(x, ast.Constant) and isinstance(x.value, str) for x in pair
            )
            if stringy:
                continue
            if inf and (metric or not all(isinstance(x, ast.Constant) for x in pair)):
                self._report(
                    "REP004",
                    node,
                    "equality comparison against inf on a float value; use "
                    "math.isinf()/numpy.isinf() instead",
                )
            elif metric:
                self._report(
                    "REP004",
                    node,
                    "float ==/!= comparison on a metric value (h-ASPL/latency/"
                    "diameter); use math.isclose(), a tolerance, or an ordering "
                    "comparison",
                )
        self.generic_visit(node)

    # -- REP005 ----------------------------------------------------------- #

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod == "numpy.random":
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED:
                    self._report(
                        "REP001",
                        node,
                        f"import of 'numpy.random.{alias.name}' draws from the "
                        "global RNG; inject a seeded numpy.random.Generator instead",
                    )
        if mod == "repro" or mod.startswith("repro."):
            owner_pkg = mod.rsplit(".", 1)[0] if "." in mod else mod
            same_package = owner_pkg == self.ctx.package
            for alias in node.names:
                if (
                    alias.name.startswith("_")
                    and mod != self.ctx.module
                    and not same_package
                ):
                    hint = (
                        " (HostSwitchGraph internals are private to repro/core)"
                        if mod == "repro.core.hostswitch"
                        else ""
                    )
                    self._report(
                        "REP005",
                        node,
                        f"import of private name '{alias.name}' from '{mod}'"
                        f"{hint}; use or add a public API",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if attr.startswith("_") and not attr.startswith("__"):
            recv = node.value
            recv_name = recv.id if isinstance(recv, ast.Name) else None
            if recv_name not in ("self", "cls") and recv_name is not None:
                # (a) HostSwitchGraph storage slots outside repro/core.
                if attr in _HOSTSWITCH_SLOTS and not self.ctx.module.startswith(
                    "repro.core"
                ):
                    self._report(
                        "REP005",
                        node,
                        f"access to HostSwitchGraph internal '{attr}' outside "
                        "repro/core; use the public accessors "
                        "(neighbors/ports_used/host_counts/...)",
                    )
                else:
                    # (b) underscore member on an object whose class lives in
                    # another repro module (resolved via annotations).  Same
                    # package is fine: privates are shared within a package.
                    for scope in reversed(self._foreign_typed):
                        mod = scope.get(recv_name)
                        if mod and (mod.rsplit(".", 1)[0] if "." in mod else mod) == (
                            self.ctx.package
                        ):
                            break
                        if mod:
                            self._report(
                                "REP005",
                                node,
                                f"access to private member '{attr}' of a "
                                f"'{mod}' object from '{self.ctx.module}'; "
                                "use or add a public API",
                            )
                            break
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one Python source string; returns sorted diagnostics."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(path, exc.lineno or 1, exc.offset or 0, "REP000",
                       f"syntax error: {exc.msg}")
        ]
    ctx = _FileContext(tree, source, path)
    analyzer = _Analyzer(ctx)
    analyzer.visit(tree)
    analyzer.check_duplicate_dist_calls(tree)
    return sorted(analyzer.diags, key=lambda d: (d.line, d.col, d.code))


def lint_file(path: str | Path) -> list[Diagnostic]:
    """Lint one file."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


class DuplicateModuleError(ValueError):
    """Two linted files map to one dotted module name.

    The flow rules key their whole-program index by module name, so one
    file would silently shadow the other (a fixture tree's
    ``repro/obs/names.py`` would replace the real instrument registry).
    """


def _iter_python_files(paths: list[str]) -> list[Path]:
    """Every ``.py`` file under ``paths``, at most one per module name."""
    by_module: dict[str, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = [
                f
                for f in sorted(p.rglob("*.py"))
                if not any(part.startswith(".") for part in f.parts)
            ]
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        else:
            found = [p] if p.suffix == ".py" else []
        for f in found:
            module = _module_name_for(f)
            first = by_module.setdefault(module, f)
            if first.resolve() != f.resolve():
                raise DuplicateModuleError(
                    f"{first} and {f} both map to module '{module}'; "
                    "lint them in separate runs"
                )
    return list(by_module.values())


def lint_paths(paths: list[str], *, select: set[str] | None = None) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories.

    Applies the per-file rules and the whole-program flow rules
    (REP010-REP013) in one run; ``select`` restricts both.  Diagnostics
    come back globally ordered by ``(path, line, col, code)``.  Raises
    :class:`DuplicateModuleError` when two files map to one module name.
    """
    files = _iter_python_files(paths)
    diags: list[Diagnostic] = []
    for f in files:
        diags.extend(lint_file(f))
    # Function-level import: flow imports Diagnostic from this module.
    from repro.devtools.flow.rules import flow_lint

    flow_select = select & FLOW_RULES if select is not None else None
    if flow_select is None or flow_select:
        flow_diags, _stats = flow_lint(files, select=flow_select)
        diags.extend(flow_diags)
    if select is not None:
        diags = [d for d in diags if d.code in select]
    return sorted(diags, key=Diagnostic.sort_key)


def main(argv: list[str] | None = None) -> int:
    """Console entry point for ``repro-lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-specific static analysis for the ORP reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to enable (default: all)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(RULES.items()):
            print(f"{code}  {summary}")
        return 0

    selected = (
        {c.strip() for c in args.select.split(",") if c.strip()}
        if args.select
        else None
    )
    if selected is not None:
        unknown = selected - set(RULES) - {"REP000"}
        if unknown:
            print(
                f"repro-lint: unknown rule code(s): {', '.join(sorted(unknown))} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2

    try:
        diags = lint_paths(args.paths or ["src"], select=selected)
    except (OSError, DuplicateModuleError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    for diag in diags:
        print(diag.render())
    if diags:
        print(
            f"repro-lint: {len(diags)} violation(s) in "
            f"{len({d.path for d in diags})} file(s)"
        )
    return 1 if diags else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
