"""Property tests of the distance-repair engine against the reference APSP.

Hypothesis draws a switch graph (sparse random, ring, path or 2-D torus)
and a sequence of edits, and after every step holds
:class:`repro.core.incremental.DynamicDistanceMatrix` to
:data:`tests.conftest.REFERENCE_KERNEL`'s APSP, and
:class:`repro.core.incremental.IncrementalEvaluator` to that APSP plus
:func:`repro.core.metrics.h_aspl` bit for bit.  Long chains make the
cross-block relaxation run many rounds or exceed the row budget; sparse
graphs, paths and switch take-downs leave disconnected intermediate
states, whose ``inf`` rows must stay off both sides of an edit.  The
drawn ``_FALLBACK_FRACTION`` (1, one half, or 0) makes no edit, some
edits or every edit a full rebuild.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.incremental as incremental
from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import DynamicDistanceMatrix, IncrementalEvaluator
from repro.core.kernels import CSRAdjacency
from repro.core.metrics import h_aspl
from repro.core.operations import SwapMove, SwingMove
from tests.conftest import REFERENCE_KERNEL

_Edge = tuple[int, int]

#: Row budgets: never rebuild (the pure repair path, which examples shrink
#: towards), the production half, rebuild on every removal.
_BUDGETS = st.sampled_from([1.0, 0.5, 0.0])


def _reference(m: int, edges) -> np.ndarray:
    return REFERENCE_KERNEL.bfs_distances(CSRAdjacency.from_edges(m, sorted(edges)), np.arange(m))


@st.composite
def switch_graphs(draw) -> tuple[int, list[_Edge]]:
    """``(m, edges)``: a sparse random graph or a long chain."""
    shape = draw(st.sampled_from(["random", "ring", "path", "torus"]))
    if shape == "torus":
        rows, cols = draw(st.integers(3, 6)), draw(st.integers(3, 6))
        m = rows * cols
        edges = set()
        for x in range(rows):
            for y in range(cols):
                s = x * cols + y
                for t in (((x + 1) % rows) * cols + y, x * cols + (y + 1) % cols):
                    edges.add((min(s, t), max(s, t)))
    elif shape in ("ring", "path"):
        m = draw(st.integers(3, 40))
        edges = {(i, i + 1) for i in range(m - 1)}
        if shape == "ring":
            edges.add((0, m - 1))
    else:
        m = draw(st.integers(2, 24))
        pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=2 * m))
        edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    return m, sorted(edges)


@st.composite
def host_graphs(draw) -> HostSwitchGraph:
    """A switch graph from :func:`switch_graphs` with 0-3 hosts per switch.

    Up to two isolated hostless switches ride along: their ``inf`` rows
    leave the h-ASPL finite, so the running sum must keep them off the
    sides of every edit.
    """
    m, edges = draw(switch_graphs())
    hosts = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    if sum(hosts) < 2:
        hosts[0] += 2
    spare = draw(st.integers(0, 2))
    m += spare
    hosts.extend([0] * spare)
    degree = np.bincount(np.asarray(edges, dtype=np.int64).reshape(-1), minlength=m)
    radix = max(3, int((degree + np.asarray(hosts)).max()))
    attachments = [s for s, k in enumerate(hosts) for _ in range(k)]
    return HostSwitchGraph.from_edges(m, radix, edges, attachments)


_PICK = st.integers(0, 1 << 16)
#: One engine edit: ``(op, pick, pick)``, the picks taken modulo what exists.
_EDITS = st.lists(st.tuples(st.sampled_from(["remove", "add", "remove_switch"]), _PICK, _PICK),
                  min_size=5, max_size=30)
#: One evaluator step: ``(kind, picks, commit?)``.
_STEPS = st.lists(
    st.tuples(st.sampled_from(["swap", "swing", "two-swing"]),
              st.tuples(_PICK, _PICK, _PICK, _PICK), st.booleans()),
    min_size=5, max_size=25,
)


def _budgeted(cls, graph: HostSwitchGraph, budget: float):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "_FALLBACK_FRACTION", budget)
        return cls(graph)


@settings(max_examples=100, deadline=None)
@given(graph=switch_graphs(), edits=_EDITS, budget=_BUDGETS)
def test_engine_matches_reference_after_every_edit(graph, edits, budget):
    m, edges = graph
    ddm = _budgeted(DynamicDistanceMatrix, HostSwitchGraph.from_edges(m, m, edges, []), budget)
    view = ddm.dist
    live = set(edges)
    for op, i, j in edits:
        if op == "remove":
            if not live:
                continue
            edge = sorted(live)[i % len(live)]
            ddm.remove_edge(*edge)
            live.discard(edge)
        elif op == "add":
            edge = (min(i % m, j % m), max(i % m, j % m))
            if edge[0] == edge[1] or edge in live:
                continue
            ddm.add_edge(*edge)
            live.add(edge)
        else:
            live.difference_update(ddm.remove_switch(i % m))
        expected = _reference(m, live)
        assert ddm.dist is view  # repairs and rebuilds both write in place
        assert np.array_equal(ddm.dist, expected)
        assert ddm.is_connected() == bool(np.isfinite(expected).all())


def _oriented(edges: list[_Edge], pick: int) -> _Edge:
    a, b = edges[(pick >> 1) % len(edges)]
    return (a, b) if pick & 1 else (b, a)


def _first_legal(graph: HostSwitchGraph, candidates):
    return next((move for move in candidates if move.is_legal(graph)), None)


def _swap(graph: HostSwitchGraph, pick: int, turn: int) -> SwapMove | None:
    """The first legal swap of edge ``pick`` with an edge from ``turn`` on."""
    edges = sorted(graph.switch_edges())
    first = _oriented(edges, pick)
    return _first_legal(graph, (SwapMove(*first, *_oriented(edges, turn + 2 * k))
                                for k in range(len(edges))))


def _swing(graph: HostSwitchGraph, pick: int, turn: int) -> SwingMove | None:
    """The first legal swing of edge ``pick`` to a switch from ``turn`` on."""
    m = graph.num_switches
    first = _oriented(sorted(graph.switch_edges()), pick)
    return _first_legal(graph, (SwingMove(*first, (turn + k) % m) for k in range(m)))


#: Per step kind, the move makers and the picks each one reads.
_MAKERS = {
    "swap": [(_swap, 0, 1)],
    "swing": [(_swing, 0, 1)],
    "two-swing": [(_swing, 0, 1), (_swing, 2, 3)],
}


def _moves(graph: HostSwitchGraph, kind: str, picks: tuple[int, ...]) -> list:
    """The drawn move(s), applied to ``graph`` in order; ``[]`` if none is legal.

    A second swing is drawn on the graph the first one left.
    """
    if not graph.num_switch_edges:
        return []
    applied = []
    for make, i, j in _MAKERS[kind]:
        move = make(graph, picks[i], picks[j])
        if move is None:
            for done in reversed(applied):
                done.undo(graph)
            return []
        move.apply(graph)
        applied.append(move)
    return applied


def _assert_exact(evaluator: IncrementalEvaluator, graph: HostSwitchGraph) -> None:
    m = graph.num_switches
    assert np.array_equal(evaluator.dist, _reference(m, graph.switch_edges()))
    expected = h_aspl(graph)
    if math.isinf(expected):
        assert math.isinf(evaluator.value)
    else:
        assert evaluator.value == expected  # repro-lint: disable=REP004 -- bit-identity contract


@settings(max_examples=100, deadline=None)
@given(graph=host_graphs(), steps=_STEPS, budget=_BUDGETS)
def test_evaluator_matches_reference_after_every_step(graph, steps, budget):
    evaluator = _budgeted(IncrementalEvaluator, graph, budget)
    for kind, picks, keep in steps:
        moves = _moves(graph, kind, picks)
        if not moves:
            continue
        evaluator.propose(moves)
        _assert_exact(evaluator, graph)
        if keep:
            evaluator.commit()
        else:
            evaluator.rollback()
            for move in reversed(moves):
                move.undo(graph)
        _assert_exact(evaluator, graph)


def test_fallback_rebuild_inside_the_first_proposal_rolls_back():
    """A rebuild in the first proposal leaves the committed matrix intact."""
    ring = [(s, (s + 1) % 12) for s in range(12)]
    graph = HostSwitchGraph.from_edges(12, 3, ring, list(range(12)))
    evaluator = _budgeted(IncrementalEvaluator, graph, 0.0)
    committed, before, value = evaluator.dist, evaluator.dist.copy(), evaluator.value
    move = SwapMove(0, 1, 6, 7)
    move.apply(graph)
    evaluator.propose(move)
    assert evaluator.stats["fallbacks"] == 1
    assert evaluator.dist is not committed
    _assert_exact(evaluator, graph)
    evaluator.rollback()
    move.undo(graph)
    assert evaluator.dist is committed
    assert np.array_equal(evaluator.dist, before) and evaluator.value == value
