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
edits or every edit a full rebuild.  The engine's neighbour table is
held to the graph's adjacency after every step too, and to the
committed adjacency after every rollback.
"""

from __future__ import annotations

import math
import warnings

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


def _assert_table(engine: DynamicDistanceMatrix, m: int, edges) -> None:
    """The table, ``neighbors`` and ``has_edge`` all agree with ``edges``."""
    adjacency: list[list[int]] = [[] for _ in range(m)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for s, row in enumerate(engine._table.tolist()):
        expected = sorted(adjacency[s])
        assert sorted(t for t in row if t != s) == expected, f"row {s}"
        assert engine.neighbors(s).tolist() == expected
        assert all(engine.has_edge(s, t) for t in expected)
        absent = next((t for t in range(m) if t != s and t not in expected), None)
        assert absent is None or not engine.has_edge(s, absent)


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
        _assert_table(ddm, m, live)


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
    _assert_table(evaluator, m, graph.switch_edges())
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


def _ring(m: int, radix: int, hosts=()) -> HostSwitchGraph:
    return HostSwitchGraph.from_edges(m, radix, [(s, (s + 1) % m) for s in range(m)], hosts)


def test_rejected_edits_leave_matrix_and_table_untouched():
    ddm = DynamicDistanceMatrix(_ring(8, 3))
    dist, table = ddm.dist.copy(), ddm._table.copy()
    with pytest.raises(ValueError, match=r"no switch edge \{0, 2\} to remove"):
        ddm.remove_edge(0, 2)
    with pytest.raises(ValueError, match=r"switch edge \{3, 4\} already present"):
        ddm.add_edge(3, 4)
    assert np.array_equal(ddm.dist, dist)
    assert np.array_equal(ddm._table, table)


def test_failed_proposal_restores_matrix_and_table():
    """An edit that raises mid-proposal rolls back the edits before it."""
    graph = _ring(10, 3, range(10))
    evaluator = _budgeted(IncrementalEvaluator, graph, 1.0)
    dist, table, value = evaluator.dist.copy(), evaluator._table.copy(), evaluator.value
    # The first swap's edges exist and are repaired away; {2, 4} is absent.
    moves = [SwapMove(0, 1, 5, 6), SwapMove(2, 4, 7, 9)]
    with pytest.raises(ValueError, match="no switch edge"):
        evaluator.propose(moves)
    assert np.array_equal(evaluator.dist, dist)
    assert np.array_equal(evaluator._table, table)
    assert evaluator.value == value
    evaluator.propose(SwapMove(0, 1, 5, 6))  # no proposal left pending


def test_add_edge_to_a_full_row_widens_the_table():
    ddm = DynamicDistanceMatrix(_ring(6, 2))
    assert ddm._table.shape == (6, 2)
    ddm.add_edge(0, 3)
    assert ddm._table.shape == (6, 3)
    live = {(s, (s + 1) % 6) for s in range(6)} | {(0, 3)}
    _assert_table(ddm, 6, live)
    assert np.array_equal(ddm.dist, _reference(6, {(min(e), max(e)) for e in live}))


def test_swing_beside_an_unreachable_hostless_switch_warns_nothing():
    """Host deltas read rows with ``inf`` where the isolated switch sits."""
    ring = [(s, (s + 1) % 6) for s in range(6)]
    graph = HostSwitchGraph.from_edges(7, 4, ring, [0, 0, 1, 3, 4, 5])
    evaluator = IncrementalEvaluator(graph)
    onto = SwingMove(1, 2, 4)  # a host onto hostless switch 2, off switch 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for move in (onto, onto.inverse()):
            move.apply(graph)
            assert evaluator.propose(move) == h_aspl(graph)  # repro-lint: disable=REP004 -- bit-identity contract
            evaluator.commit()
