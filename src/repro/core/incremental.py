"""Incremental h-ASPL evaluation for the annealing hot path.

The simulated-annealing search (paper Section 5) historically recomputed a
full APSP over all host-bearing switches on *every* proposal, even though a
swap or swing perturbs exactly two switch edges.  This module maintains the
switch-graph distance matrix ``D`` across moves and repairs it instead,
running every BFS through the one bit-parallel kernel of
:mod:`repro.core.kernels`.

One engine does the repair: :class:`DynamicDistanceMatrix` applies edge
removals and insertions to ``D`` in place.  :class:`IncrementalEvaluator`
is that engine plus an undo journal and the running weighted sum the
annealer scores.

Repair algorithm
----------------
For each **removed** edge ``{u, v}`` (processed sequentially) only sources
``x`` whose distance to the far endpoint is forced through the edge can
change at all:

- if ``d(x, v) == d(x, u) + 1`` and ``v`` has no *other* neighbour ``w``
  with ``d(x, w) == d(x, v) - 1`` then ``d(x, v)`` must grow and row ``x``
  is repaired by a fresh kernel BFS; symmetrically for ``u``;
- otherwise the whole row provably keeps its distances (if the far endpoint
  keeps an alternative predecessor at the same depth, every shortest path
  can be rerouted through it without the removed edge).

A changed pair always has **both** endpoints in the affected set ``A``
(if a row is unaffected, none of its entries change — and ``D`` is
symmetric), so every stale entry lives in the ``A x A`` block.  The
repair therefore recomputes only that block, with one batched
multi-source BFS (``targets=A``) sharing the proposal's CSR adjacency.

For each **added** edge ``{u, v}`` distances only shrink and the classic
single-insertion rule is exact::

    D[x, y] = min(D[x, y], D[x, u] + 1 + D[v, y], D[x, v] + 1 + D[u, y])

Row ``x`` can only improve when ``|d(x, u) - d(x, v)| >= 2`` (otherwise
the detour through the new edge is never shorter: ``d(x,u) + 1 + d(v,y)
>= d(x,v) + d(v,y) >= d(x,y)``), and a changed pair again has *both*
endpoints screened in (``d'(x,y) = d(x,u)+1+d(v,y) < d(x,y) <= d(x,u) +
d(u,y)`` forces ``d(u,y) - d(v,y) >= 2``), so the min-rule runs on the
screened ``A x A`` block only.  Removals are repaired before
insertions; mixing is still exact because every intermediate matrix is
the exact APSP of its intermediate graph.

The undo journal
----------------
``propose`` repairs the matrix **in place** and journals every repair
step's ``(rows, prior A x A block)`` together with the committed CSR,
host counts and value.  ``rollback`` restores the journaled blocks in
reverse order — which covers every modified entry, because each repair
step only writes its own block — and reinstates the committed state.
``commit`` simply drops the journal.  The committed CSR adjacency is
never mutated: a proposal's CSR accumulates single-edge deltas as cheap
copies and is kept (or dropped) wholesale, so the CSR is only ever
rebuilt from the graph at construction/rebuild.

The h-ASPL itself is maintained as the running weighted sum
``sum k_a k_b (d(a,b) + 2)``: each repair step contributes the
integer-exact float64 quadratic form ``k[A] @ (new - old) @ k[A]`` of
its block delta (host-count deltas of swing moves are applied on top,
term by term), so a proposal costs O(|A|^2) instead of O(m^2).  Any
``inf`` in sight (disconnection, or a previously disconnected committed
state) falls back to the full double sum, which is bit-identical because
every term of either computation is an integer exactly representable in
float64.

Fallback and invariants
-----------------------
When the affected-row count exceeds ``fallback_fraction * m`` the repair
would cost as much as a rebuild, so the evaluator recomputes all rows in
one batched BFS instead (the *exact fallback* — same kernel, all
sources).  Either way the evaluator maintains these invariants after every
``propose``/``commit``/``rollback``:

- ``D`` is the exact, symmetric switch-graph distance matrix (``inf`` for
  disconnected pairs) of the bound graph;
- ``k`` equals the graph's per-switch host counts;
- ``value``/``weighted_sum`` equal :func:`repro.core.metrics.h_aspl` on the
  bound graph **bit-for-bit** (every term of the weighted sum is an integer
  exactly representable in float64, so summation order cannot matter).

``D`` covers *all* switches, not only host-bearing ones, so swing moves
that empty or populate a switch never invalidate the matrix.  The test
suite's ``CheckedEvaluator`` subclass verifies every proposal against the
reference kernel and a brute-force h-ASPL.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import KERNEL, CSRAdjacency
from repro.core.metrics import _weighted_host_distance_sum
from repro.core.operations import SwapMove, SwingMove
from repro.obs import NULL_TELEMETRY, Histogram, TelemetryRegistry
from repro.obs import clock as obs_clock

__all__ = [
    "DynamicDistanceMatrix",
    "IncrementalEvaluator",
    "IncrementalEvaluatorError",
]

Move = SwapMove | SwingMove
_Edge = tuple[int, int]
#: One journaled repair step: ``(rows, old block, new block, inserted)``.
_Step = tuple[np.ndarray, np.ndarray, np.ndarray, bool]

#: Buckets for the repaired-rows-per-move histogram; repairs are usually a
#: handful of rows, the top buckets catch near-fallback proposals.
_ROWS_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Telemetry instrument names (registered in ``repro.obs.names``).
_KERNEL_BFS_TIMER = "kernel.bfs_s"
_KERNEL_BFS_ROWS = "kernel.bfs_rows"


class IncrementalEvaluatorError(RuntimeError):
    """Misuse of the propose/commit/rollback protocol."""


def _affected_sources(
    dist: np.ndarray, csr: CSRAdjacency, u: int, v: int
) -> np.ndarray:
    """Rows whose distances can change when edge ``{u, v}`` is removed.

    ``dist`` is exact for the graph *with* the edge; ``csr`` already has
    it removed (so the predecessor scan below cannot see it).  Row ``x``
    is affected iff the far endpoint sat exactly one level deeper and
    loses its only predecessor at that depth — an exact row-level test,
    not a superset (see the module docstring for the argument).  ``dist``
    is symmetric, so the scan reads contiguous rows instead of columns.
    """
    affected = np.zeros(dist.shape[0], dtype=bool)
    for near, far in ((u, v), (v, u)):
        through = dist[far] == dist[near] + 1.0
        if not through.any():
            continue
        survivors = csr.neighbors(far)
        if len(survivors):
            alternative = (dist[survivors] == dist[far] - 1.0).any(axis=0)
            through &= ~alternative
        affected |= through
    return np.flatnonzero(affected)


def _insertion_affected(dist: np.ndarray, u: int, v: int) -> np.ndarray:
    """Rows that can improve when edge ``{u, v}`` is inserted.

    Exactly the rows with ``|d(x, u) - d(x, v)| >= 2`` (see the module
    docstring); rows reaching neither endpoint (``inf - inf`` is NaN)
    compare False and are correctly skipped, rows reaching exactly one
    endpoint give ``inf`` and are correctly included.
    """
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(np.abs(dist[u] - dist[v]) >= 2.0)


def _insertion_block(
    dist: np.ndarray, rows: np.ndarray, u: int, v: int
) -> np.ndarray:
    """The min-rule update of the ``rows x rows`` block for edge ``{u, v}``.

    ``dist[rows, v] == dist[v, rows]`` by symmetry, so both detour terms
    come from the same two gathered vectors.  Reads complete before any
    caller writes: every operand is a fancy-indexed copy or feeds an
    arithmetic op that allocates.
    """
    du = dist[rows, u]
    dv = dist[rows, v]
    block = dist[rows[:, None], rows[None, :]]
    detour = du[:, None] + (dv[None, :] + 1.0)
    np.minimum(block, detour, out=block)
    np.add(dv[:, None], du[None, :] + 1.0, out=detour)
    np.minimum(block, detour, out=block)
    return block


class DynamicDistanceMatrix:
    """Exact switch-graph APSP maintained across edge removals/insertions.

    The one repair engine: degraded :class:`repro.routing.RoutingTables`
    and the :mod:`repro.analysis.resilience` sweeps keep one of these alive
    and repair it per fault/repair instead of re-running a full APSP, and
    :class:`IncrementalEvaluator` extends it for the annealing loop.

    Every mutation is applied immediately and exactly, and the matrix keeps
    ``inf`` entries while the graph is partitioned (both the affected-row
    test and the insertion screening stay exact in the presence of
    ``inf``; see the module docstring).  After any sequence of
    ``remove_edge``/``add_edge`` calls, :attr:`dist` is bit-identical to a
    from-scratch rebuild on the resulting graph.

    Parameters
    ----------
    graph:
        Snapshot source; the matrix does not track later graph mutations.
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`; when enabled, every
        kernel BFS feeds the ``kernel.bfs_s`` / ``kernel.bfs_rows``
        row-throughput instruments.
    """

    def __init__(
        self,
        graph: HostSwitchGraph,
        *,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self._m = graph.num_switches
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._bfs_timer = self._bfs_counter = None
        if tel.enabled:
            self._bfs_timer = tel.timer(_KERNEL_BFS_TIMER)
            self._bfs_counter = tel.counter(_KERNEL_BFS_ROWS)
        self._load(graph)

    def _load(self, graph: HostSwitchGraph) -> None:
        """(Re)build the CSR and the full matrix from ``graph``."""
        self._csr = CSRAdjacency.from_graph(graph)
        self._dist = self._bfs(np.arange(self._m))

    def _bfs(self, rows: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        """Kernel BFS over the current CSR with optional row telemetry."""
        if self._bfs_timer is None:
            return KERNEL.bfs_distances(self._csr, rows, targets)
        t0 = obs_clock()
        out = KERNEL.bfs_distances(self._csr, rows, targets)
        self._bfs_timer.observe(obs_clock() - t0)
        self._bfs_counter.inc(len(rows))
        return out

    def _edit(
        self,
        removed: Sequence[_Edge],
        added: Sequence[_Edge],
        row_budget: float = math.inf,
    ) -> int | None:
        """Remove then insert switch edges, repairing :attr:`dist` in place.

        Returns the rows the removals repaired.  Once that count exceeds
        ``row_budget`` the remaining edges only update the CSR, all rows
        are recomputed into a new :attr:`dist` array in one batched BFS
        (the exact fallback), and ``None`` is returned.
        """
        repaired = 0
        exact = True
        for u, v in removed:
            self._csr = self._csr.with_edge_removed(u, v)
            if not exact:
                continue
            rows = _affected_sources(self._dist, self._csr, u, v)
            repaired += len(rows)
            if repaired > row_budget:
                exact = False
            elif len(rows):
                self._write(rows, self._bfs(rows, targets=rows), inserted=False)
        for u, v in added:
            self._csr = self._csr.with_edge_added(u, v)
            if not exact:
                continue
            rows = _insertion_affected(self._dist, u, v)
            if len(rows):
                block = _insertion_block(self._dist, rows, u, v)
                self._write(rows, block, inserted=True)
        if not exact:
            self._dist = self._bfs(np.arange(self._m))
            return None
        return repaired

    def _write(self, rows: np.ndarray, block: np.ndarray, *, inserted: bool) -> None:
        """Store one repair step's ``rows x rows`` block in place.

        ``inserted`` marks an insertion step, whose block can only shrink.
        """
        self._dist[rows[:, None], rows[None, :]] = block

    @property
    def num_switches(self) -> int:
        return self._m

    @property
    def dist(self) -> np.ndarray:
        """Live ``(m, m)`` float64 distance matrix, ``inf`` for unreachable.

        This is the engine's working array, not a copy — treat it as
        read-only and re-read it after each mutation.
        """
        return self._dist

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self._csr.has_edge(u, v)

    def neighbors(self, u: int) -> np.ndarray:
        """Switch ids adjacent to ``u``, ascending."""
        if not 0 <= u < self._m:
            raise ValueError(f"switch id {u} out of range [0, {self._m})")
        return self._csr.neighbors(u).copy()

    def is_connected(self) -> bool:
        return not np.isinf(self._dist).any()

    def remove_edge(self, u: int, v: int) -> int:
        """Remove switch edge ``{u, v}``; returns the repaired row count."""
        self._check_pair(u, v)
        return self._edit([(u, v)], [])

    def add_edge(self, u: int, v: int) -> None:
        """Insert switch edge ``{u, v}`` (exact screened min-rule)."""
        self._check_pair(u, v)
        self._edit([], [(u, v)])

    def remove_switch(self, s: int) -> tuple[tuple[int, int], ...]:
        """Remove every edge incident to ``s`` (isolating it).

        Returns the removed edges as sorted ``(a, b)`` pairs with ``a < b``,
        in the order they were taken down — re-adding them in any order via
        :meth:`add_edge` restores the exact pre-removal matrix.
        """
        removed = []
        for t in self.neighbors(s):
            edge = (min(s, int(t)), max(s, int(t)))
            self.remove_edge(*edge)
            removed.append(edge)
        return tuple(removed)

    def _check_pair(self, u: int, v: int) -> None:
        for s in (u, v):
            if not 0 <= s < self._m:
                raise ValueError(f"switch id {s} out of range [0, {self._m})")
        if u == v:
            raise ValueError(f"self-loop {{{u}, {v}}} is not a switch edge")


class IncrementalEvaluator(DynamicDistanceMatrix):
    """A journaled :class:`DynamicDistanceMatrix` plus the running h-ASPL.

    The protocol mirrors the annealer's accept/reject structure:

    1. the caller applies the move(s) to the bound graph,
    2. ``propose(moves)`` repairs the matrix and returns the candidate
       h-ASPL; until step 3 the evaluator's state is the candidate's,
    3. ``commit()`` keeps the candidate state, or ``rollback()`` restores
       the committed one (after which the caller undoes the moves on the
       graph).

    The inherited single-edge mutators are not part of this protocol: an
    edit outside ``propose`` raises :class:`IncrementalEvaluatorError`.

    Parameters
    ----------
    graph:
        The bound (mutable) host-switch graph; the evaluator snapshots its
        structure and thereafter trusts the move deltas.
    fallback_fraction:
        Repair-vs-rebuild threshold: when one proposal's affected rows
        exceed this fraction of ``m``, every row is recomputed in one
        batched BFS instead.  ``0.0`` forces the full rebuild on every
        proposal (useful for testing the fallback path).
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`; when enabled, the
        evaluator feeds a repaired-rows-per-move histogram (and the engine
        its kernel row-throughput instruments) in addition to the
        always-on ``stats`` dict.
    """

    def __init__(
        self,
        graph: HostSwitchGraph,
        *,
        fallback_fraction: float = 0.5,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        if not 0.0 <= fallback_fraction <= 1.0:
            raise ValueError(
                f"fallback_fraction must be in [0, 1], got {fallback_fraction}"
            )
        if graph.num_hosts < 2:
            raise ValueError(
                f"h-ASPL needs at least 2 hosts, graph has {graph.num_hosts}"
            )
        super().__init__(graph, telemetry=telemetry)
        self._graph = graph
        self._row_budget = int(fallback_fraction * self._m)
        self._rows_hist: Histogram | None = None
        if telemetry is not None and telemetry.enabled:
            self._rows_hist = telemetry.histogram(
                "evaluator.repaired_rows_per_move", _ROWS_BOUNDS
            )
        self._score()
        #: While a proposal is pending: the committed ``(csr, dist, k, value,
        #: weighted)`` and the journal of repair steps ``(rows, old block,
        #: new block, inserted)``.
        self._pending: tuple[tuple, list[_Step]] | None = None
        self.stats = {
            "proposals": 0,
            "fallbacks": 0,
            "repaired_rows": 0,
        }

    def _score(self) -> None:
        """Host counts and value from the bound graph and current matrix."""
        self._k = self._graph.host_counts().astype(np.float64)
        self._n = self._graph.num_hosts
        self._value, self._weighted = self._evaluate(self._dist, self._k)

    def _edit(
        self,
        removed: Sequence[_Edge],
        added: Sequence[_Edge],
        row_budget: float = math.inf,
    ) -> int | None:
        if self._pending is None:
            raise IncrementalEvaluatorError("edit the evaluator through propose()")
        return super()._edit(removed, added, row_budget)

    def _write(self, rows: np.ndarray, block: np.ndarray, *, inserted: bool) -> None:
        old = self._dist[rows[:, None], rows[None, :]]
        self._pending[1].append((rows, old, block, inserted))
        super()._write(rows, block, inserted=inserted)

    # ------------------------------------------------------------------ #
    # Value computation
    # ------------------------------------------------------------------ #

    @property
    def value(self) -> float:
        """h-ASPL of the current state (matches ``metrics.h_aspl``)."""
        return self._value

    @property
    def weighted_sum(self) -> float:
        """The running weighted sum ``sum k_a k_b (d(a,b) + 2)`` (or inf)."""
        return self._weighted

    def _value_of(self, weighted: float) -> float:
        n = self._n
        return float((0.5 * weighted - n) / (n * (n - 1) / 2.0))

    def _evaluate(self, dist: np.ndarray, k: np.ndarray) -> tuple[float, float]:
        """``(h_aspl, weighted_sum)`` from a distance matrix and counts."""
        bearing = np.flatnonzero(k > 0)
        kb = k[bearing]
        if len(bearing) == dist.shape[0]:
            sub = dist
        else:
            sub = dist[np.ix_(bearing, bearing)]
        if np.isinf(sub).any():
            return float("inf"), float("inf")
        weighted = _weighted_host_distance_sum(sub, kb)
        return self._value_of(weighted), weighted

    def _block_delta(
        self,
        dw: float,
        rows: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        finite: bool = False,
    ) -> tuple[float, bool]:
        """Fold one repair step's block delta into the running weighted sum.

        The step changed exactly the ``rows x rows`` block, so its exact
        contribution (with the *committed* host counts — swing deltas are
        applied afterwards, term by term) is the quadratic form
        ``k[rows] @ (new - old) @ k[rows]`` restricted to host-bearing
        rows.  Returns ``(dw, False)`` when the new block holds an
        ``inf`` at a bearing pair (the move disconnects hosts) — the
        caller then falls back to the full double sum.  Bearing entries
        of ``old`` are finite by induction (the committed sum was finite
        and every previous step passed this same check), so the
        subtraction never sees ``inf - inf``.  Insertion steps pass
        ``finite=True`` to skip the scan: their block is an elementwise
        ``min`` against the old one, so finiteness is inherited.
        """
        kr = self._k[rows]
        bsel = kr > 0
        if bsel.all():  # the common case: every touched switch bears hosts
            sub_new, sub_old, kb = new, old, kr
        elif not bsel.any():
            return dw, True
        else:
            sub_new = new[bsel][:, bsel]
            sub_old = old[bsel][:, bsel]
            kb = kr[bsel]
        if not finite and not np.isfinite(sub_new).all():
            return dw, False
        return dw + float(kb @ (sub_new - sub_old) @ kb), True

    def _host_delta_weighted(
        self,
        dist: np.ndarray,
        host_deltas: list[tuple[int, int]],
        weighted: float,
    ) -> float | None:
        """Apply swing host-count deltas to the weighted sum, term by term.

        Changing ``k[s]`` by ``d`` against the (already repaired) matrix
        adds ``2 d sum_b k_b (d(s,b) + 2) + 2 d^2`` — with the diagonal
        convention ``d(s,s) + 2 = 2`` folded in by reading the full row.
        Returns ``None`` when ``s`` cannot reach a bearing switch (value
        is ``inf`` territory; the caller falls back to the full sum).
        """
        k_run = self._k.copy()
        for s, d in host_deltas:
            bearing = np.flatnonzero(k_run > 0)
            row = dist[s][bearing]
            if np.isinf(row).any():
                return None
            w = float((row + 2.0) @ k_run[bearing])
            weighted = weighted + 2.0 * d * w + 2.0 * (d * d)
            k_run[s] += d
        return weighted

    # ------------------------------------------------------------------ #
    # propose / commit / rollback
    # ------------------------------------------------------------------ #

    def propose(self, moves: Move | Sequence[Move]) -> float:
        """Candidate h-ASPL after ``moves`` (already applied to the graph).

        The matrix is repaired in place and every repair step journaled;
        call :meth:`commit` to keep the candidate or :meth:`rollback` to
        restore the committed state.  A second ``propose`` before either
        is a protocol error.
        """
        if self._pending is not None:
            raise IncrementalEvaluatorError(
                "propose() called with a proposal already pending; "
                "commit() or rollback() first"
            )
        removed, added, host_deltas = self._aggregate(moves)
        self.stats["proposals"] += 1
        journal: list[_Step] = []
        committed = (self._csr, self._dist, self._k, self._value, self._weighted)
        self._pending = (committed, journal)
        try:
            repaired = self._edit(removed, added, self._row_budget)
        except BaseException:
            self.rollback()
            raise

        if repaired is None:
            self.stats["fallbacks"] += 1
        else:
            self.stats["repaired_rows"] += repaired
            if self._rows_hist is not None:
                self._rows_hist.observe(repaired)

        weighted: float | None = None
        if repaired is not None and math.isfinite(self._weighted):
            weighted = self._repaired_sum(journal, host_deltas)
        if host_deltas:
            self._k = self._k.copy()
            for switch, delta in host_deltas:
                self._k[switch] += delta
        if weighted is None:
            self._value, self._weighted = self._evaluate(self._dist, self._k)
        else:
            self._value, self._weighted = self._value_of(weighted), weighted
        return self._value

    def _repaired_sum(
        self, journal: list[_Step], host_deltas: list[tuple[int, int]]
    ) -> float | None:
        """The candidate weighted sum from the journaled block deltas.

        ``None`` when an ``inf`` comes into sight; the caller then falls
        back to the full double sum.
        """
        dw, ok = 0.0, True
        for rows, old, new, inserted in journal:
            dw, ok = self._block_delta(dw, rows, old, new, finite=inserted)
            if not ok:
                return None
        weighted = self._weighted + dw
        if host_deltas:
            return self._host_delta_weighted(self._dist, host_deltas, weighted)
        return weighted

    def commit(self) -> None:
        """Keep the pending proposal as the committed state."""
        if self._pending is None:
            raise IncrementalEvaluatorError("commit() without a pending proposal")
        self._pending = None

    def rollback(self) -> None:
        """Discard the pending proposal (restores journaled blocks in place).

        Blocks are restored newest-first: later steps' blocks may overlap
        earlier ones, and reverse order replays the edit history backwards.
        """
        if self._pending is None:
            raise IncrementalEvaluatorError("rollback() without a pending proposal")
        committed, journal = self._pending
        self._csr, self._dist, self._k, self._value, self._weighted = committed
        for rows, old, _new, _inserted in reversed(journal):
            self._dist[rows[:, None], rows[None, :]] = old
        self._pending = None

    def _aggregate(
        self, moves: Move | Sequence[Move]
    ) -> tuple[list[_Edge], list[_Edge], list[tuple[int, int]]]:
        """Net ``(removed, added, host_deltas)`` over a move sequence.

        Edges removed and re-added (or vice versa) within one proposal
        cancel; host-count deltas sum per switch.
        """
        if isinstance(moves, (SwapMove, SwingMove)):
            moves = [moves]
        edge_delta: dict[_Edge, int] = {}
        host_delta: dict[int, int] = {}
        for move in moves:
            removed, added = move.edge_changes()
            for a, b in removed:
                key = (a, b) if a < b else (b, a)
                edge_delta[key] = edge_delta.get(key, 0) - 1
            for a, b in added:
                key = (a, b) if a < b else (b, a)
                edge_delta[key] = edge_delta.get(key, 0) + 1
            for switch, delta in move.host_count_changes():
                host_delta[switch] = host_delta.get(switch, 0) + delta
        removed_net = [e for e, d in edge_delta.items() if d < 0]
        added_net = [e for e, d in edge_delta.items() if d > 0]
        if any(abs(d) > 1 for d in edge_delta.values()):
            raise IncrementalEvaluatorError(
                "move sequence removes or adds the same switch edge twice"
            )
        deltas = [(s, d) for s, d in host_delta.items() if d != 0]
        return removed_net, added_net, deltas

    def rebuild(self) -> None:
        """Resynchronise from the bound graph (full APSP; drops pending)."""
        self._pending = None
        self._load(self._graph)
        self._score()
