"""The flow rules REP010-REP013.

Each rule runs over the whole-program :class:`ProjectIndex` plus, where
path sensitivity matters, a per-function CFG and the forward taint
analysis of :mod:`repro.devtools.flow.engine`:

REP010
    Ambient OS entropy transitively reaching the deterministic packages
    (``repro.core`` / ``repro.simulation`` / ``repro.campaign`` /
    ``repro.faults``).  A may-be-None seed flowing into a summary-known
    entropy carrier (``as_generator``, ``default_rng``, ``SeedSequence``)
    fires; ``x is not None`` guards and conditional expressions are
    respected via branch refinement.  Direct no-argument ``default_rng()``
    and ``random.*`` call sites stay REP001's, in every package — REP010
    owns everything the call-site view cannot see.
REP011
    Cross-process fan-out hazards around ``ProcessPoolExecutor``:
    unpicklable callables (lambdas, nested functions) handed to
    ``submit``/``map``, and results folded in *completion order* (loops
    over ``wait(...)`` sets or ``as_completed(...)``) — completion order
    varies run to run, so order-sensitive folds must key by dispatch
    index instead.
REP012
    CFG-exact restore safety: a paired mutation (``apply``/``undo``,
    ``remove_edge``/``add_edge``, ...) on the same receiver with the same
    arguments fires when some node between the mutation and its restore
    has an exceptional edge escaping the restoring region.  The bulk
    ``remove_switch`` is restored by any ``add_edge``/``add_switch_edge``
    on its receiver, also after the loop that took the switches down.
    It needs no loop and no package scoping, and is exact about *which*
    paths restore.
REP013
    Telemetry instrument names must be literals from the
    ``repro.obs.names.INSTRUMENTS`` registry (directly, via a module
    constant, or via a module-level literal dict).  F-strings and local
    variables make the telemetry schema open-ended and undiffable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.devtools.flow.cfg import BACK, CFG, EXC, CFGEdge, build_cfg
from repro.devtools.flow.engine import FlowResult, solve_forward
from repro.devtools.flow.lattice import (
    EMPTY_TAGS,
    TAG_NONE,
    Env,
    Tags,
    none_tags,
    param_none_tag,
    strip_none,
)
from repro.devtools.flow.summaries import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_index,
    entropy_builtin,
)
from repro.devtools.lint import (  # repro-lint: disable=REP005 -- flow is devtools-internal
    Diagnostic,
    _FileContext,
)

__all__ = ["FlowStats", "flow_lint"]

#: Packages whose entry points must be seedable end to end (REP010).
_REP010_SCOPE = ("repro.core", "repro.simulation", "repro.campaign", "repro.faults")

#: Mutation method -> its paired restore method (REP012); the restore must
#: repeat the mutation's receiver and arguments.
_REP012_PAIRS = {
    "apply": "undo",
    "remove_switch_edge": "add_switch_edge",
    "remove_edge": "add_edge",
    "fail_link": "repair_link",
    "fail_switch": "repair_switch",
}
#: Bulk mutation -> its restore methods (REP012).  ``remove_switch`` takes
#: down every edge at a switch and returns them, so an edge add on the same
#: receiver restores it whatever its arguments.
_REP012_BULK = {"remove_switch": frozenset({"add_edge", "add_switch_edge"})}
_REP012_RESTORERS = frozenset(_REP012_PAIRS.values()).union(*_REP012_BULK.values())

#: Registry methods whose first argument is an instrument name (REP013).
_TEL_METHODS = frozenset({"counter", "gauge", "timer", "histogram", "span", "event"})

#: Packages exempt from REP013 (the registry itself, and this linter).
_REP013_EXEMPT = ("repro.obs", "repro.devtools")

#: Order-sensitive fold methods flagged inside completion-order loops.
_FOLD_METHODS = frozenset({"append", "extend", "merge", "event"})


@dataclass
class FlowStats:
    """Aggregate accounting for one flow-rule run (asserted in tests)."""

    functions_analyzed: int = 0
    dataflow_iterations: int = 0
    summary_rounds: int = 0
    converged: bool = True


# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def _receiver_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_none_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _scoped_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs or lambdas."""
    stack: list[ast.AST] = [node]
    first = True
    while stack:
        cur = stack.pop()
        if not first and isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        first = False
        yield cur
        stack.extend(ast.iter_child_nodes(cur))


# --------------------------------------------------------------------- #
# The taint transfer / refinement functions (REP010)
# --------------------------------------------------------------------- #


def _strip_var(env: Env, name: str) -> None:
    if name in env:
        env[name] = strip_none(env[name])


def _refine_env(env: Env, test: ast.expr, branch: bool) -> Env:
    """Sharpen ``env`` along the ``branch`` edge of ``test`` (in place)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _refine_env(env, test.operand, not branch)
    if isinstance(test, ast.BoolOp):
        # On the True edge of an `and`, every operand held; on the False
        # edge of an `or`, every operand failed.  Mixed edges refine nothing.
        if (isinstance(test.op, ast.And) and branch) or (
            isinstance(test.op, ast.Or) and not branch
        ):
            for value in test.values:
                env = _refine_env(env, value, branch)
        return env
    if isinstance(test, ast.Name):
        if branch:  # truthy implies not-None
            _strip_var(env, test.id)
        return env
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        eq_none = isinstance(op, (ast.Is, ast.Eq))
        ne_none = isinstance(op, (ast.IsNot, ast.NotEq))
        if eq_none or ne_none:
            left, right = test.left, test.comparators[0]
            var: str | None = None
            if _is_none_const(right) and isinstance(left, ast.Name):
                var = left.id
            elif _is_none_const(left) and isinstance(right, ast.Name):
                var = right.id
            if var is not None and ((eq_none and not branch) or (ne_none and branch)):
                _strip_var(env, var)
        return env
    if (
        branch
        and isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and test.args
        and isinstance(test.args[0], ast.Name)
    ):
        _strip_var(env, test.args[0].id)
    return env


def _expr_tags(env: Env, expr: ast.expr) -> Tags:
    """May-be-None provenance of ``expr`` under ``env``."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id, EMPTY_TAGS)
    if isinstance(expr, ast.Constant):
        return frozenset({TAG_NONE}) if expr.value is None else EMPTY_TAGS
    if isinstance(expr, ast.NamedExpr):
        return _expr_tags(env, expr.value)
    if isinstance(expr, ast.IfExp):
        true_tags = _expr_tags(_refine_env(dict(env), expr.test, True), expr.body)
        false_tags = _expr_tags(_refine_env(dict(env), expr.test, False), expr.orelse)
        return true_tags | false_tags
    if isinstance(expr, ast.BoolOp):
        if isinstance(expr.op, ast.Or):
            # `a or b` only yields `a` when `a` is truthy, hence not None.
            out = _expr_tags(env, expr.values[-1])
            for value in expr.values[:-1]:
                out |= strip_none(_expr_tags(env, value))
            return out
        out = EMPTY_TAGS
        for value in expr.values:  # `a and b` may yield a falsy `a` (None)
            out |= _expr_tags(env, value)
        return out
    return EMPTY_TAGS


def _assign_tags(env: Env, target: ast.expr, tags: Tags) -> None:
    if isinstance(target, ast.Name):
        env[target.id] = tags
    elif isinstance(target, ast.Starred):
        _assign_tags(env, target.value, EMPTY_TAGS)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:  # element split: provenance unknown
            _assign_tags(env, element, EMPTY_TAGS)
    # Attribute / Subscript targets carry no local taint.


def _transfer(node: object, env: Env) -> Env:
    stmt = getattr(node, "stmt", None)
    if isinstance(stmt, ast.Assign):
        tags = _expr_tags(env, stmt.value)
        for target in stmt.targets:
            _assign_tags(env, target, tags)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        _assign_tags(env, stmt.target, _expr_tags(env, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        _assign_tags(env, stmt.target, EMPTY_TAGS)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        _assign_tags(env, stmt.target, EMPTY_TAGS)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                _assign_tags(env, item.optional_vars, EMPTY_TAGS)
    return env


def _calls_with_env(env: Env, node: ast.AST) -> Iterator[tuple[ast.Call, Env]]:
    """Yield every call under ``node`` with its branch-refined environment.

    Conditional expressions and short-circuit operators refine the
    environment for their guarded operands, so ``f(x) if x is not None
    else g()`` scans ``f(x)`` with the None tags on ``x`` killed.  Nested
    defs and lambdas are separate scopes and are not descended into.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    if isinstance(node, ast.IfExp):
        yield from _calls_with_env(env, node.test)
        yield from _calls_with_env(_refine_env(dict(env), node.test, True), node.body)
        yield from _calls_with_env(
            _refine_env(dict(env), node.test, False), node.orelse
        )
        return
    if isinstance(node, ast.BoolOp):
        branch = isinstance(node.op, ast.And)
        current = env
        for value in node.values:
            yield from _calls_with_env(current, value)
            current = _refine_env(dict(current), value, branch)
        return
    if isinstance(node, ast.Call):
        yield node, env
    for child in ast.iter_child_nodes(node):
        yield from _calls_with_env(env, child)


def _loop_bodies(cfg: CFG) -> dict[int, set[int]]:
    """Loop head -> every node of its loop (the natural loops of its back edges)."""
    bodies: dict[int, set[int]] = {}
    for edges in cfg.succs.values():
        for edge in edges:
            if edge.kind != BACK:
                continue
            body = bodies.setdefault(edge.dst, {edge.dst})
            stack = [edge.src]
            while stack:
                cur = stack.pop()
                if cur not in body:
                    body.add(cur)
                    stack.extend(pred.src for pred in cfg.preds.get(cur, []))
    return bodies


def _follows(edge: CFGEdge, open_heads: set[int]) -> bool:
    """REP012 walks a back edge only into a loop in ``open_heads``."""
    return edge.kind != BACK or edge.dst in open_heads


def _reaching(cfg: CFG, targets: set[int], open_heads: set[int]) -> set[int]:
    """Nodes from which some node in ``targets`` is reachable."""
    seen = set(targets)
    stack = list(targets)
    while stack:
        for edge in cfg.preds.get(stack.pop(), []):
            if _follows(edge, open_heads) and edge.src not in seen:
                seen.add(edge.src)
                stack.append(edge.src)
    return seen


def _forward_until(
    cfg: CFG, start: int, stops: set[int], open_heads: set[int]
) -> set[int]:
    """Forward reach from ``start`` that does not expand past ``stops``."""
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur in stops and cur != start:
            continue
        for edge in cfg.succs.get(cur, []):
            if _follows(edge, open_heads) and edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return seen


# --------------------------------------------------------------------- #
# Per-module rule runner
# --------------------------------------------------------------------- #


class _ModuleChecker:
    def __init__(
        self,
        index: ProjectIndex,
        mod: ModuleInfo,
        registry: frozenset[str] | None,
        select: set[str] | None,
        stats: FlowStats,
    ) -> None:
        self.index = index
        self.mod = mod
        self.registry = registry
        self.select = select
        self.stats = stats
        self.ctx = _FileContext(mod.tree, mod.source, mod.path)
        self.diags: list[Diagnostic] = []

    def _enabled(self, code: str) -> bool:
        return self.select is None or code in self.select

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        end = getattr(node, "end_lineno", None) or line
        col = getattr(node, "col_offset", 0)
        if self.ctx.waived_span(code, line, end):
            return
        self.diags.append(Diagnostic(self.ctx.path, line, col, code, message))

    # -- driver ---------------------------------------------------------- #

    def run(self) -> list[Diagnostic]:
        rep010_scope = any(
            self.mod.module == pkg or self.mod.module.startswith(pkg + ".")
            for pkg in _REP010_SCOPE
        )
        for fi in self.mod.functions.values():
            cfg = build_cfg(fi.node)
            self.stats.functions_analyzed += 1
            if rep010_scope and self._enabled("REP010"):
                initial: Env = {
                    param: frozenset({param_none_tag(param)})
                    for param in fi.none_defaults
                }
                flow = solve_forward(
                    cfg, _transfer, refine=_refine_env, initial=initial
                )
                self.stats.dataflow_iterations += flow.iterations
                self.stats.converged = self.stats.converged and flow.converged
                self._check_rep010(fi, cfg, flow)
            if self._enabled("REP012"):
                self._check_rep012(cfg)
            if self._enabled("REP011"):
                self._check_rep011(fi)
        if self._enabled("REP013"):
            self._check_rep013()
        return self.diags

    # -- REP010 ----------------------------------------------------------- #

    def _check_rep010(self, fi: FunctionInfo, cfg: CFG, flow: FlowResult) -> None:
        cls = self.mod.classes.get(fi.cls) if fi.cls is not None else None
        for node in cfg.nodes.values():
            env = flow.state_at(node.idx)
            for anchor in node.anchors:
                for call, call_env in _calls_with_env(env, anchor):
                    self._rep010_call(cls, call, call_env)

    def _rep010_call(self, cls: ast.ClassDef | None, call: ast.Call, env: Env) -> None:
        kind = entropy_builtin(self.mod, call)
        if kind == "random_module":
            return  # direct random.* call sites are REP001's
        if kind in ("default_rng", "SeedSequence"):
            arg = call.args[0] if call.args else None
            if arg is None and not call.keywords:
                if kind == "SeedSequence":
                    self._report(
                        "REP010",
                        call,
                        "SeedSequence() with no entropy draws from the OS; pass "
                        "an explicit integer so spawned streams are replayable",
                    )
                return  # bare default_rng() is REP001's call-site finding
            if arg is not None:
                self._rep010_tainted(call, _expr_tags(env, arg), f"{kind}()")
            return
        resolved = self.index.resolve_call(self.mod, call, cls=cls)
        if resolved is None:
            return
        callee, offset = resolved
        if callee.ambient_always:
            self._report(
                "REP010",
                call,
                f"'{callee.name}' (in {callee.module}) draws ambient OS entropy "
                "unconditionally; thread a seed parameter through it",
            )
            return
        for param in sorted(callee.ambient_if_none):
            arg = self.index.argument_for(callee, offset, call, param)
            if arg is None:
                if param in callee.none_defaults:
                    self._report(
                        "REP010",
                        call,
                        f"'{callee.name}' defaults '{param}' to None and then "
                        "draws ambient entropy; pass an explicit seed",
                    )
                continue
            if _is_none_const(arg):
                self._report(
                    "REP010",
                    call,
                    f"explicit None for '{param}' of '{callee.name}' draws "
                    "ambient OS entropy; pass an integer seed",
                )
                continue
            self._rep010_tainted(
                call, _expr_tags(env, arg), f"'{callee.name}' via '{param}'"
            )

    def _rep010_tainted(self, call: ast.Call, tags: Tags, sink: str) -> None:
        nones = none_tags(tags)
        if not nones:
            return
        origins = [
            "a locally assigned None"
            if tag == TAG_NONE
            else f"parameter '{tag.split(':', 1)[1]}' (default None)"
            for tag in sorted(nones)
        ]
        self._report(
            "REP010",
            call,
            f"may-be-None seed from {', '.join(origins)} reaches {sink}; "
            "ambient OS entropy makes the run unreplayable (default the "
            "parameter to an integer seed)",
        )

    # -- REP011 ----------------------------------------------------------- #

    def _check_rep011(self, fi: FunctionInfo) -> None:
        fn = fi.node
        pools: set[str] = set()
        future_sets: set[str] = set()
        nested_defs: set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn
            ):
                nested_defs.add(node.name)

        def is_pool_ctor(expr: ast.expr) -> bool:
            if not isinstance(expr, ast.Call):
                return False
            chain = _receiver_chain(expr.func)
            return chain is not None and chain[-1] == "ProcessPoolExecutor"

        for node in _scoped_walk(fn):
            if isinstance(node, ast.Assign):
                if is_pool_ctor(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            pools.add(target.id)
                elif isinstance(node.value, ast.Call):
                    chain = _receiver_chain(node.value.func)
                    if chain is not None and chain[-1] == "wait":
                        targets = node.targets[0]
                        names = (
                            targets.elts
                            if isinstance(targets, ast.Tuple)
                            else [targets]
                        )
                        for name in names:
                            if isinstance(name, ast.Name):
                                future_sets.add(name.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if is_pool_ctor(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        pools.add(item.optional_vars.id)

        for node in _scoped_walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if (
                    node.func.attr in ("submit", "map")
                    and isinstance(recv, ast.Name)
                    and recv.id in pools
                ):
                    self._rep011_capture(node, nested_defs)
            elif isinstance(node, ast.For):
                if self._rep011_completion_iter(node.iter, future_sets):
                    self._rep011_fold(node)

    def _rep011_capture(self, call: ast.Call, nested_defs: set[str]) -> None:
        for arg in call.args:
            if isinstance(arg, ast.Lambda):
                self._report(
                    "REP011",
                    arg,
                    "lambda handed to ProcessPoolExecutor is not picklable; "
                    "pass a module-level function",
                )
            elif isinstance(arg, ast.Name) and arg.id in nested_defs:
                self._report(
                    "REP011",
                    call,
                    f"nested function '{arg.id}' handed to ProcessPoolExecutor "
                    "is not picklable by the default pickler; move it to module "
                    "level",
                )

    def _rep011_completion_iter(
        self, iter_expr: ast.expr, future_sets: set[str]
    ) -> bool:
        if isinstance(iter_expr, ast.Name):
            return iter_expr.id in future_sets
        if isinstance(iter_expr, ast.Call):
            chain = _receiver_chain(iter_expr.func)
            if chain is not None and chain[-1] == "as_completed":
                return True
            if (
                chain is not None
                and chain[-1] == "list"
                and len(iter_expr.args) == 1
                and isinstance(iter_expr.args[0], ast.Name)
            ):
                return iter_expr.args[0].id in future_sets
        return False

    def _rep011_fold(self, loop: ast.For) -> None:
        for stmt in loop.body:
            for node in _scoped_walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FOLD_METHODS
                ):
                    self._report(
                        "REP011",
                        node,
                        f"'.{node.func.attr}(...)' folds results in future "
                        "*completion* order, which varies run to run; collect "
                        "keyed by dispatch index (or sort) before folding",
                    )

    # -- REP012 ----------------------------------------------------------- #

    def _check_rep012(self, cfg: CFG) -> None:
        PairKey = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]

        def pair_key(call: ast.Call) -> PairKey | None:
            func = call.func
            if not isinstance(func, ast.Attribute):
                return None
            recv = _receiver_chain(func.value)
            if recv is None:
                return None
            args = tuple(ast.dump(a) for a in call.args)
            kwargs = tuple(
                sorted(f"{kw.arg}={ast.dump(kw.value)}" for kw in call.keywords)
            )
            return recv, args, kwargs

        mutations: list[tuple[int, ast.Call, str, PairKey]] = []
        restores: dict[tuple[str, PairKey], set[int]] = {}
        for node in cfg.nodes.values():
            for anchor in node.anchors:
                for sub in _scoped_walk(anchor):
                    if not isinstance(sub, ast.Call) or not isinstance(
                        sub.func, ast.Attribute
                    ):
                        continue
                    tail = sub.func.attr
                    key = pair_key(sub)
                    if key is None:
                        continue
                    if tail in _REP012_PAIRS or tail in _REP012_BULK:
                        mutations.append((node.idx, sub, tail, key))
                    if tail in _REP012_RESTORERS:
                        restores.setdefault((tail, key), set()).add(node.idx)

        bodies = _loop_bodies(cfg) if mutations else {}
        for m_idx, call, tail, key in mutations:
            # An exact pair restores within one iteration: a loop rebinds the
            # arguments, so no walk goes round a back edge.  A bulk restore
            # matches on the receiver alone, so the walk may finish the loops
            # that hold no restore (``for s in picked: remove_switch(s)``).
            if tail in _REP012_BULK:
                matched = {
                    (r_tail, idx)
                    for (r_tail, r_key), idxs in restores.items()
                    if r_tail in _REP012_BULK[tail] and r_key[0] == key[0]
                    for idx in idxs
                }
            else:
                r_tail = _REP012_PAIRS[tail]
                matched = {(r_tail, idx) for idx in restores.get((r_tail, key), ())}
            r_nodes = {idx for _, idx in matched if idx != m_idx}
            if not r_nodes:
                continue
            open_heads = (
                {h for h, body in bodies.items() if not body & r_nodes}
                if tail in _REP012_BULK
                else set()
            )
            canreach = _reaching(cfg, r_nodes, open_heads)
            if m_idx not in canreach:
                continue  # this mutation's paths never restore by design
            region = _forward_until(cfg, m_idx, r_nodes, open_heads)
            if self._rep012_escapes(cfg, m_idx, r_nodes, region, canreach):
                recv = ".".join(key[0])
                restore = "/".join(sorted({r for r, idx in matched if idx in r_nodes}))
                self._report(
                    "REP012",
                    call,
                    f"'{recv}.{tail}(...)' may escape on an exception path "
                    f"before its paired '{restore}' runs, leaving "
                    "shared state corrupted for the caller; restore in a "
                    "finally block or undo-and-reraise",
                )

    def _rep012_escapes(
        self,
        cfg: CFG,
        m_idx: int,
        r_nodes: set[int],
        region: set[int],
        canreach: set[int],
    ) -> bool:
        for idx in region:
            if idx == m_idx or idx in r_nodes or idx not in canreach:
                continue
            for edge in cfg.succs.get(idx, []):
                if edge.kind != EXC:
                    continue
                if edge.dst == cfg.exit or edge.dst not in canreach:
                    return True
        return False

    # -- REP013 ----------------------------------------------------------- #

    def _check_rep013(self) -> None:
        module = self.mod.module
        if any(
            module == pkg or module.startswith(pkg + ".") for pkg in _REP013_EXEMPT
        ):
            return
        if self.registry is None:
            return
        for node in ast.walk(self.mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TEL_METHODS
                and node.args
            ):
                self._rep013_name(node, node.args[0])

    def _rep013_name(self, call: ast.Call, arg: ast.expr) -> None:
        registry = self.registry
        assert registry is not None
        method = call.func.attr if isinstance(call.func, ast.Attribute) else "?"
        if isinstance(arg, ast.Constant):
            if not isinstance(arg.value, str):
                return  # not a name-keyed telemetry call
            if arg.value not in registry:
                self._report(
                    "REP013",
                    call,
                    f"instrument name '{arg.value}' is not declared in "
                    "repro.obs.names.INSTRUMENTS; add it to the registry (the "
                    "telemetry schema is closed)",
                )
            return
        if isinstance(arg, ast.JoinedStr):
            self._report(
                "REP013",
                call,
                f"f-string instrument name in '.{method}(...)' makes the "
                "telemetry schema open-ended; use literals from "
                "repro.obs.names.INSTRUMENTS (one per variant, or a "
                "module-level dict keyed by the variant)",
            )
            return
        if isinstance(arg, ast.Name):
            value = self._constant_for(arg.id)
            if (
                value is not None
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                if value.value not in registry:
                    self._report(
                        "REP013",
                        call,
                        f"constant '{arg.id}' = '{value.value}' is not declared "
                        "in repro.obs.names.INSTRUMENTS",
                    )
                return
            self._report(
                "REP013",
                call,
                f"instrument name '{arg.id}' in '.{method}(...)' is not a "
                "literal or module-level string constant; telemetry names must "
                "come from repro.obs.names.INSTRUMENTS",
            )
            return
        if isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Name):
            table = self._constant_for(arg.value.id)
            if isinstance(table, ast.Dict):
                bad = [
                    v.value
                    for v in table.values
                    if isinstance(v, ast.Constant)
                    and isinstance(v.value, str)
                    and v.value not in registry
                ]
                literal = all(
                    isinstance(v, ast.Constant) and isinstance(v.value, str)
                    for v in table.values
                )
                if literal and not bad:
                    return
                detail = (
                    f"maps to undeclared name(s) {sorted(set(bad))}"
                    if bad
                    else "has non-literal values"
                )
                self._report(
                    "REP013",
                    call,
                    f"instrument-name dict '{arg.value.id}' {detail}; every "
                    "value must be a literal from repro.obs.names.INSTRUMENTS",
                )
                return
        if isinstance(arg, ast.Attribute):
            chain = _receiver_chain(arg)
            if chain is not None and len(chain) == 2:
                bound = self.mod.imports.get(chain[0])
                if bound is not None and bound[1] is None:
                    target = self.index.modules.get(bound[0])
                    value = target.constants.get(chain[1]) if target else None
                    if (
                        value is not None
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    ):
                        if value.value not in registry:
                            self._report(
                                "REP013",
                                call,
                                f"constant '{'.'.join(chain)}' = "
                                f"'{value.value}' is not declared in "
                                "repro.obs.names.INSTRUMENTS",
                            )
                        return
        self._report(
            "REP013",
            call,
            f"instrument name in '.{method}(...)' is not a literal; telemetry "
            "names must be literals (or module-level constants) drawn from "
            "repro.obs.names.INSTRUMENTS",
        )

    def _constant_for(self, name: str) -> ast.expr | None:
        value = self.mod.constants.get(name)
        if value is not None:
            return value
        bound = self.mod.imports.get(name)
        if bound is not None and bound[1] is not None:
            target = self.index.modules.get(bound[0])
            if target is not None:
                return target.constants.get(bound[1])
        return None


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def flow_lint(
    files: Iterable[Path],
    *,
    registry: frozenset[str] | None = None,
    select: set[str] | None = None,
) -> tuple[list[Diagnostic], FlowStats]:
    """Run the flow rules over ``files``; returns (diagnostics, stats).

    ``registry`` overrides the instrument registry (tests); by default it
    is parsed from ``repro.obs.names`` in the linted tree.  ``select``
    restricts to a subset of REP010-REP013.
    """
    index = build_index(list(files))
    stats = FlowStats(summary_rounds=index.summary_rounds)
    if registry is None:
        registry = index.instrument_registry()
    diags: list[Diagnostic] = []
    for mod in index.modules.values():
        checker = _ModuleChecker(index, mod, registry, select, stats)
        diags.extend(checker.run())
    return sorted(diags, key=Diagnostic.sort_key), stats
