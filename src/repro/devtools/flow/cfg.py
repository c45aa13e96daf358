"""Intra-function control-flow graphs over :mod:`ast`.

One :class:`CFG` is built per function.  Nodes are statement-granular:
every simple statement gets a node, and compound statements contribute a
node for their control expression (an ``if``/``while`` test, a ``for``
iterator, the ``with`` items) plus the nodes of their blocks.  Two
synthetic nodes bracket the graph: ``entry`` and ``exit``.

Edge kinds
----------
``normal``
    Ordinary fall-through.
``true`` / ``false``
    Branch edges out of a test node.  They carry the test expression so
    dataflow clients can refine facts along the branch (e.g. kill a
    may-be-None tag on the ``x is not None`` edge).
``exc``
    Exceptional flow: from any node that can raise (contains a call, or
    is a ``raise``/``assert``) to the innermost enclosing handler or
    ``finally`` entry, or to ``exit`` when nothing encloses it.
``back``
    Loop back edges (body end / ``continue`` back to the loop head).
    Marked so clients can reason over the acyclic forward structure.

``try/except/finally`` is modelled with a deliberate over-approximation:
the ``finally`` block is built once; its exit gains a normal edge to the
code after the ``try`` *and* exceptional edges to the outer handler
chain (covering the re-raise continuation), and ``break``/``continue``/
``return`` inside the ``try`` are routed through the ``finally`` chain
to their real target.  Over-approximate paths can only *add* behaviours,
so may-reach queries (REP012's "may exit without the paired restore")
never miss a real path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "BACK",
    "CFG",
    "CFGEdge",
    "CFGNode",
    "EXC",
    "FALSE",
    "NORMAL",
    "TRUE",
    "build_cfg",
]

NORMAL = "normal"
TRUE = "true"
FALSE = "false"
EXC = "exc"
BACK = "back"

FunctionLike = ast.FunctionDef | ast.AsyncFunctionDef

#: Pending out-edge of a built fragment: (src node, kind, cond, branch).
_Pending = tuple[int, str, "ast.expr | None", bool]


@dataclass(frozen=True)
class CFGEdge:
    """One directed edge; ``cond``/``branch`` only on true/false edges."""

    src: int
    dst: int
    kind: str = NORMAL
    cond: ast.expr | None = None
    branch: bool = True


@dataclass
class CFGNode:
    """One CFG node; ``anchors`` are the AST subtrees it executes."""

    idx: int
    label: str
    stmt: ast.stmt | None = None
    anchors: list[ast.AST] = field(default_factory=list)

    def can_raise(self) -> bool:
        if isinstance(self.stmt, (ast.Raise, ast.Assert)):
            return True
        for anchor in self.anchors:
            for sub in ast.walk(anchor):
                if isinstance(sub, ast.Call):
                    return True
        return False


@dataclass
class CFG:
    """Control-flow graph of one function."""

    name: str
    entry: int
    exit: int
    nodes: dict[int, CFGNode]
    succs: dict[int, list[CFGEdge]]
    preds: dict[int, list[CFGEdge]]

    def owner_map(self) -> dict[int, int]:
        """Map ``id(ast_subnode) -> cfg node idx`` over every anchor."""
        owners: dict[int, int] = {}
        for node in self.nodes.values():
            for anchor in node.anchors:
                for sub in ast.walk(anchor):
                    owners.setdefault(id(sub), node.idx)
        return owners

    def reachable_from(
        self, start: int, *, skip_kinds: frozenset[str] = frozenset()
    ) -> set[int]:
        """Node ids reachable from ``start`` (``start`` included)."""
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for edge in self.succs.get(cur, []):
                if edge.kind in skip_kinds or edge.dst in seen:
                    continue
                seen.add(edge.dst)
                stack.append(edge.dst)
        return seen


@dataclass
class _LoopFrame:
    head: int
    breaks: list[int] = field(default_factory=list)


@dataclass
class _FinallyFrame:
    entry: int
    exit: int


class _Builder:
    def __init__(self, fn: FunctionLike) -> None:
        self.fn = fn
        self.nodes: dict[int, CFGNode] = {}
        self.succs: dict[int, list[CFGEdge]] = {}
        self.preds: dict[int, list[CFGEdge]] = {}
        self._edge_seen: set[tuple[int, int, str]] = set()
        self._next = 0
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.frames: list[_LoopFrame | _FinallyFrame] = []
        self.exc_targets: list[tuple[int, ...]] = [(self.exit,)]

    # -- plumbing ------------------------------------------------------- #

    def _new(
        self,
        label: str,
        stmt: ast.stmt | None = None,
        anchors: list[ast.AST] | None = None,
    ) -> int:
        idx = self._next
        self._next += 1
        self.nodes[idx] = CFGNode(idx, label, stmt, anchors or [])
        self.succs[idx] = []
        self.preds[idx] = []
        return idx

    def _edge(
        self,
        src: int,
        dst: int,
        kind: str = NORMAL,
        cond: ast.expr | None = None,
        branch: bool = True,
    ) -> None:
        key = (src, dst, kind)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        edge = CFGEdge(src, dst, kind, cond, branch)
        self.succs[src].append(edge)
        self.preds[dst].append(edge)

    def _patch(self, pending: list[_Pending], dst: int) -> None:
        for src, kind, cond, branch in pending:
            self._edge(src, dst, kind, cond, branch)

    def _exc_edges(self, idx: int) -> None:
        if self.nodes[idx].can_raise():
            for target in self.exc_targets[-1]:
                self._edge(idx, target, EXC)

    # -- statement dispatch --------------------------------------------- #

    def _block(self, stmts: list[ast.stmt]) -> tuple[int | None, list[_Pending]]:
        entry: int | None = None
        frontier: list[_Pending] = []
        for stmt in stmts:
            node_entry, exits = self._stmt(stmt)
            if entry is None:
                entry = node_entry
            self._patch(frontier, node_entry)
            frontier = exits
        return entry, frontier

    def _stmt(self, stmt: ast.stmt) -> tuple[int, list[_Pending]]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt)
        if isinstance(stmt, ast.Try):
            return self._try(stmt)
        if _TRY_STAR is not None and isinstance(stmt, _TRY_STAR):
            return self._try(stmt)
        if isinstance(stmt, ast.Match):
            return self._match(stmt)
        if isinstance(stmt, ast.Return):
            return self._return(stmt)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt)
        if isinstance(stmt, ast.Break):
            return self._break(stmt)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt)
        # Simple statement (including nested def/class, which execute as
        # one definition-binding step; their bodies are separate CFGs).
        idx = self._new(type(stmt).__name__, stmt, [stmt])
        self._exc_edges(idx)
        return idx, [(idx, NORMAL, None, True)]

    # -- compound statements -------------------------------------------- #

    def _if(self, stmt: ast.If) -> tuple[int, list[_Pending]]:
        test = self._new("if", stmt, [stmt.test])
        self._exc_edges(test)
        body_entry, body_exits = self._block(stmt.body)
        assert body_entry is not None
        self._edge(test, body_entry, TRUE, stmt.test, True)
        exits = list(body_exits)
        if stmt.orelse:
            orelse_entry, orelse_exits = self._block(stmt.orelse)
            assert orelse_entry is not None
            self._edge(test, orelse_entry, FALSE, stmt.test, False)
            exits.extend(orelse_exits)
        else:
            exits.append((test, FALSE, stmt.test, False))
        return test, exits

    def _while(self, stmt: ast.While) -> tuple[int, list[_Pending]]:
        head = self._new("while", stmt, [stmt.test])
        self._exc_edges(head)
        frame = _LoopFrame(head)
        self.frames.append(frame)
        body_entry, body_exits = self._block(stmt.body)
        self.frames.pop()
        assert body_entry is not None
        self._edge(head, body_entry, TRUE, stmt.test, True)
        for src, _kind, _cond, _branch in body_exits:
            self._edge(src, head, BACK)
        exits: list[_Pending] = []
        always_true = (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        )
        if stmt.orelse:
            orelse_entry, orelse_exits = self._block(stmt.orelse)
            assert orelse_entry is not None
            self._edge(head, orelse_entry, FALSE, stmt.test, False)
            exits.extend(orelse_exits)
        elif not always_true:
            exits.append((head, FALSE, stmt.test, False))
        exits.extend((b, NORMAL, None, True) for b in frame.breaks)
        return head, exits

    def _for(self, stmt: ast.For | ast.AsyncFor) -> tuple[int, list[_Pending]]:
        head = self._new("for", stmt, [stmt.target, stmt.iter])
        self._exc_edges(head)
        frame = _LoopFrame(head)
        self.frames.append(frame)
        body_entry, body_exits = self._block(stmt.body)
        self.frames.pop()
        assert body_entry is not None
        self._edge(head, body_entry, TRUE, None, True)
        for src, _kind, _cond, _branch in body_exits:
            self._edge(src, head, BACK)
        exits: list[_Pending] = []
        if stmt.orelse:
            orelse_entry, orelse_exits = self._block(stmt.orelse)
            assert orelse_entry is not None
            self._edge(head, orelse_entry, FALSE, None, False)
            exits.extend(orelse_exits)
        else:
            exits.append((head, FALSE, None, False))
        exits.extend((b, NORMAL, None, True) for b in frame.breaks)
        return head, exits

    def _with(self, stmt: ast.With | ast.AsyncWith) -> tuple[int, list[_Pending]]:
        anchors: list[ast.AST] = []
        for item in stmt.items:
            anchors.append(item.context_expr)
            if item.optional_vars is not None:
                anchors.append(item.optional_vars)
        enter = self._new("with", stmt, anchors)
        self._exc_edges(enter)
        body_entry, body_exits = self._block(stmt.body)
        assert body_entry is not None
        self._edge(enter, body_entry)
        return enter, body_exits

    def _match(self, stmt: ast.Match) -> tuple[int, list[_Pending]]:
        subject = self._new("match", stmt, [stmt.subject])
        self._exc_edges(subject)
        exits: list[_Pending] = [(subject, FALSE, None, False)]
        for case in stmt.cases:
            case_entry, case_exits = self._block(case.body)
            assert case_entry is not None
            self._edge(subject, case_entry, TRUE, None, True)
            exits.extend(case_exits)
        return subject, exits

    def _try(self, stmt: ast.Try) -> tuple[int, list[_Pending]]:
        outer_exc = self.exc_targets[-1]

        fin: _FinallyFrame | None = None
        if stmt.finalbody:
            fin_entry, fin_pending = self._block(stmt.finalbody)
            assert fin_entry is not None
            fin_exit = self._new("finally_exit")
            self._patch(fin_pending, fin_exit)
            # Abnormal continuation: an exception (or a re-raise) passes
            # through the finally and keeps unwinding to the outer chain.
            for target in outer_exc:
                self._edge(fin_exit, target, EXC)
            fin = _FinallyFrame(fin_entry, fin_exit)

        handler_exc = (fin.entry,) if fin is not None else outer_exc
        handler_entries: list[int] = []
        handler_pending: list[_Pending] = []
        for handler in stmt.handlers:
            anchors = [handler.type] if handler.type is not None else []
            h_entry = self._new("handler", None, anchors)
            handler_entries.append(h_entry)
            self.exc_targets.append(handler_exc)
            body_entry, body_exits = self._block(handler.body)
            self.exc_targets.pop()
            assert body_entry is not None
            self._edge(h_entry, body_entry)
            handler_pending.extend(body_exits)

        # An exception whose type no handler matches keeps unwinding, so
        # the outer chain stays a target — unless a catch-all handler
        # (bare / Exception / BaseException) is present.
        catch_all = any(
            h.type is None
            or (isinstance(h.type, ast.Name) and h.type.id in ("Exception", "BaseException"))
            for h in stmt.handlers
        )
        body_exc = tuple(handler_entries)
        if fin is not None:
            body_exc += (fin.entry,)
        elif not catch_all:
            body_exc += outer_exc
        self.exc_targets.append(body_exc or outer_exc)
        if fin is not None:
            self.frames.append(fin)
        body_entry, body_pending = self._block(stmt.body)
        assert body_entry is not None
        if stmt.orelse:
            # else runs after a clean body; its exceptions skip the handlers.
            self.exc_targets.append((fin.entry,) if fin is not None else outer_exc)
            orelse_entry, orelse_pending = self._block(stmt.orelse)
            self.exc_targets.pop()
            assert orelse_entry is not None
            self._patch(body_pending, orelse_entry)
            body_pending = orelse_pending
        if fin is not None:
            self.frames.pop()
        self.exc_targets.pop()

        if fin is not None:
            self._patch(body_pending, fin.entry)
            self._patch(handler_pending, fin.entry)
            return body_entry, [(fin.exit, NORMAL, None, True)]
        return body_entry, body_pending + handler_pending

    # -- jumps ----------------------------------------------------------- #

    def _finallys_until(
        self, stop_at_loop: bool
    ) -> tuple[list[_FinallyFrame], _LoopFrame | None]:
        fins: list[_FinallyFrame] = []
        for frame in reversed(self.frames):
            if isinstance(frame, _LoopFrame):
                if stop_at_loop:
                    return fins, frame
            else:
                fins.append(frame)
        return fins, None

    def _route_jump(self, src: int, fins: list[_FinallyFrame]) -> int:
        """Chain ``src`` through ``fins``; returns the last hop's source."""
        cur = src
        for fin in fins:
            self._edge(cur, fin.entry)
            cur = fin.exit
        return cur

    def _return(self, stmt: ast.Return) -> tuple[int, list[_Pending]]:
        anchors: list[ast.AST] = [stmt.value] if stmt.value is not None else []
        idx = self._new("return", stmt, anchors)
        self._exc_edges(idx)
        fins, _loop = self._finallys_until(stop_at_loop=False)
        self._edge(self._route_jump(idx, fins), self.exit)
        return idx, []

    def _raise(self, stmt: ast.Raise) -> tuple[int, list[_Pending]]:
        idx = self._new("raise", stmt, [stmt])
        for target in self.exc_targets[-1]:
            self._edge(idx, target, EXC)
        return idx, []

    def _break(self, stmt: ast.Break) -> tuple[int, list[_Pending]]:
        idx = self._new("break", stmt, [])
        fins, loop = self._finallys_until(stop_at_loop=True)
        last = self._route_jump(idx, fins)
        assert loop is not None, "break outside loop"
        loop.breaks.append(last)
        return idx, []

    def _continue(self, stmt: ast.Continue) -> tuple[int, list[_Pending]]:
        idx = self._new("continue", stmt, [])
        fins, loop = self._finallys_until(stop_at_loop=True)
        last = self._route_jump(idx, fins)
        assert loop is not None, "continue outside loop"
        self._edge(last, loop.head, BACK)
        return idx, []

    # -- top level ------------------------------------------------------- #

    def build(self) -> CFG:
        body_entry, body_pending = self._block(self.fn.body)
        assert body_entry is not None
        self._edge(self.entry, body_entry)
        self._patch(body_pending, self.exit)
        cfg = CFG(self.fn.name, self.entry, self.exit, self.nodes, self.succs, self.preds)
        self._prune(cfg)
        return cfg

    def _prune(self, cfg: CFG) -> None:
        """Drop nodes unreachable from entry (dead code after jumps)."""
        live = cfg.reachable_from(cfg.entry)
        live.add(cfg.exit)
        for idx in list(cfg.nodes):
            if idx not in live:
                del cfg.nodes[idx]
                del cfg.succs[idx]
                del cfg.preds[idx]
        for idx, edges in cfg.succs.items():
            cfg.succs[idx] = [e for e in edges if e.dst in live]
        for idx, edges in cfg.preds.items():
            cfg.preds[idx] = [e for e in edges if e.src in live]


_TRY_STAR: type[ast.Try] | None = getattr(ast, "TryStar", None)


def build_cfg(fn: FunctionLike) -> CFG:
    """Build the CFG of one (sync or async) function definition."""
    return _Builder(fn).build()
