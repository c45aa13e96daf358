"""Incremental h-ASPL evaluation for the annealing hot path.

The simulated-annealing search (paper Section 5) historically recomputed a
full APSP over all host-bearing switches on *every* proposal, even though a
swap or swing perturbs exactly two switch edges.  This module maintains the
switch-graph distance matrix ``D`` across moves and repairs it from ``D``
itself: an edit changes one block of the matrix, and that block follows
from the exact entries around it, so no proposal runs a BFS.  The one
bit-parallel kernel of :mod:`repro.core.kernels` builds ``D`` and serves
the full rebuilds described under *Fallback*.

One engine does the repair: :class:`DynamicDistanceMatrix` applies edge
removals and insertions to ``D`` in place.  :class:`IncrementalEvaluator`
is that engine plus an undo journal and the running weighted sum, and it
is the annealer's only scorer.

Repair algorithm
----------------
Edits are processed one edge at a time, removals first; every
intermediate matrix is the exact APSP of its intermediate graph, so
each step may trust all of ``D``.  Each edge ``{u, v}`` splits the rows
that can change into its **two sides**, and only the cross block between
the sides changes.

For a **removed** edge the near side ``N`` holds the rows ``x`` with a
finite ``d(x, u)``, ``d(x, v) == d(x, u) + 1`` and no *other* neighbour
``w`` of ``v`` with ``d(x, w) == d(x, v) - 1``: every shortest path from
``x`` to ``v`` ends with the edge, so ``d(x, v)`` must grow.  The far
side ``F`` is the mirror set through ``v``.  Every other row keeps its
distances (if the far endpoint keeps an alternative predecessor at the
same depth, every shortest path can be rerouted through it), and ``D``
is symmetric, so both endpoints of a changed pair lie in ``N`` or ``F``.
A shortest path between two rows of one side never uses the edge (for
``x, y`` in ``N`` it would cost ``d(x, u) + 1 + d(v, y) = d(x, u) + 2 +
d(u, y)``), so only ``N x F`` changes.  Every pair ``(x, z)`` with ``x``
in ``N`` and ``z`` outside ``F`` is exact in ``D``, so the block follows
by relaxation::

    d'(x, y) = 1 + min d'(x, z)  over the neighbours z of y

starting from ``inf`` on ``F`` and repeated until no entry drops; round
``k`` is exact for every pair whose new path takes at most ``k - 1``
steps inside ``F``.

For an **inserted** edge distances only shrink.  Row ``x`` can only
improve when ``|d(x, u) - d(x, v)| >= 2`` (otherwise the detour through
the new edge is never shorter: ``d(x,u) + 1 + d(v,y) >= d(x,v) + d(v,y)
>= d(x,y)``), so the sides are the rows with ``d(x, u) <= d(x, v) - 2``
and the mirror set.  Within one side the detour is always longer, and
across them only one direction can win, so the cross block needs just::

    d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y))

The ``inf`` guard: a row that reaches neither endpoint compares ``inf ==
inf + 1`` and ``inf <= inf - 2`` as true and would land on both sides;
both tests require a finite distance to the side's own endpoint (each is
phrased so that ``inf`` fails it, see :func:`_removal_sides` and
:func:`_insertion_sides`).  With
the guard both sides lie in the edge's component, so each cross block is
all finite or all ``inf``: a removal either keeps that component whole
or splits it between the sides, and an insertion either finds its
endpoints connected or joins their components.

The adjacency and the undo journal
----------------------------------
The engine keeps the switch adjacency as one ``(m, W)`` int32
neighbour table, ``W`` the graph's radix: row ``s`` holds ``s``'s
neighbours and its free slots hold ``s`` itself, which never lowers a
minimum.  An edit rewrites one slot per endpoint in place (an insertion
into a full row widens the table by one column).  The kernel reads a
CSR, which is built from the table only for construction and fallback
rebuilds and dropped afterwards.

``propose`` repairs the matrix **in place** and journals every repair
step's ``(rows, cols, old block, new block)`` and every table write's
``(switch, slot, old id)``, together with the committed host counts and
value; the old block is the one gathered to compute the new.  Each
block is written, and restored, in both orientations (``rows x cols``
and its transpose).  A fallback rebuild (below) is journaled the same
way, as one block holding the whole matrix, so the evaluator keeps one
``D`` array for its whole life.  ``extend`` repairs a further move into
the pending candidate and journals into the same journal (Fig. 4's
second swing, scored on top of the first).  ``rollback`` restores the
journaled blocks and slots newest-first — which covers every modified
entry, because each step only writes its own block — and reinstates the
committed counts and value, also after an exception inside ``propose``
or ``extend``.  ``commit`` simply drops the journal.

The matrix is float32: distances are small integers (and ``inf``),
which float32 holds exactly, and every gather, store and side test moves
half the bytes of float64.  A host-weighted sum is another matter (at
n=4096 it passes 2^24), so every such sum is taken against float64 host
counts, which NumPy computes in float64.  The h-ASPL itself is
maintained as the running weighted sum ``sum k_a k_b (d(a,b) + 2)``:
each repair step contributes the exact integer ``2 k[rows] . (new -
old) . k[cols]`` of its block delta (host-count deltas of swing moves
are applied on top, term by term), so a proposal costs O(|N| |F|)
instead of O(m^2).  A step that splits or joins components (one corner
of its all-or-nothing block tells), or a state that was already
disconnected, falls back to the full double sum,
:func:`repro.core.metrics.weighted_host_distance_sum`, which is
bit-identical because every term of either computation is an integer
exactly representable in float64.  Either sum becomes the value through
:func:`repro.core.metrics.h_aspl_from_weighted_sum`, the formula every
h-ASPL in the package goes through.

Fallback and invariants
-----------------------
When the rows on the sides of one proposal's removals (or of one
``remove_edge``) exceed ``_FALLBACK_FRACTION * m``, a relaxation could
run as many rounds as the graph is long (a ring, say), so the engine
recomputes all rows in one batched kernel BFS instead (the *exact
fallback*).  The evaluator and the single-edge mutators share that
budget.  Either way the evaluator maintains these invariants after every
``propose``/``extend``/``commit``/``rollback``, for its current graph
(the construction graph with every committed move applied, and while a
proposal is pending its moves too):

- ``D`` is the exact, symmetric switch-graph distance matrix (``inf`` for
  disconnected pairs) of that graph;
- ``k`` equals that graph's per-switch host counts;
- ``value`` equals :func:`repro.core.metrics.h_aspl` on that graph
  **bit-for-bit** (every term of the weighted sum is an integer exactly
  representable in float64, so summation order cannot matter).

``D`` covers *all* switches, not only host-bearing ones, so swing moves
that empty or populate a switch never invalidate the matrix.  The test
suite's ``CheckedEvaluator`` subclass applies every proposed move to its
own copy of the graph and verifies every proposal and extension against
the reference kernel and a brute-force h-ASPL of that copy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import KERNEL, CSRAdjacency
from repro.core.metrics import h_aspl_from_weighted_sum, weighted_host_distance_sum
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
#: One journaled repair step: ``(rows, cols, old block, new block)``.
_Step = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Repair-vs-rebuild threshold: when one proposal's removals affect more
#: than this fraction of the ``m`` rows, every row is recomputed in one
#: batched BFS instead.  Tests monkeypatch it to 0.0 (rebuild on every
#: proposal) or 1.0 (always repair).
_FALLBACK_FRACTION = 0.5

#: Buckets for the repaired-rows-per-move histogram; repairs are usually a
#: handful of rows, the top buckets catch near-fallback proposals.
_ROWS_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Telemetry instrument names (registered in ``repro.obs.names``).
_KERNEL_BFS_TIMER = "kernel.bfs_s"
_KERNEL_BFS_ROWS = "kernel.bfs_rows"

#: The matrix's dtype scalars: a Python float beside a float32 array costs
#: NumPy a weak-scalar cast on every call.
_ONE = np.float32(1.0)
_INF = np.float32(np.inf)
_TWO_LEVELS = np.float32(1.5)


class IncrementalEvaluatorError(RuntimeError):
    """Misuse of the propose/commit/rollback protocol."""


def _neighbour_table(csr: CSRAdjacency, width: int) -> np.ndarray:
    """The ``(m, W)`` neighbour table of ``csr``, ``W >= width``.

    Row ``s`` holds ``s``'s neighbours, then free slots holding ``s``.
    """
    m = csr.num_switches
    deg = np.diff(csr.indptr)
    width = max(width, int(deg.max(initial=0)))
    table = np.repeat(np.arange(m, dtype=np.int32)[:, None], width, axis=1)
    owner = np.repeat(np.arange(m), deg)
    table[owner, np.arange(len(owner)) - csr.indptr[owner]] = csr.indices
    return table


def _table_csr(table: np.ndarray) -> CSRAdjacency:
    """The CSR of a neighbour table: rows in slot order, free slots dropped.

    The rows are unsorted, which the kernel accepts.
    """
    keep = table != np.arange(len(table), dtype=table.dtype)[:, None]
    indptr = np.zeros(len(table) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return CSRAdjacency(indptr, table[keep])


def _removal_sides(
    dist: np.ndarray, table: np.ndarray, u: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides ``(near, far)`` of removed edge ``{u, v}``.

    ``dist`` is exact for the graph *with* the edge; ``table`` already
    has it removed (so the predecessor test below cannot see it).  Row
    ``x`` is on the near side iff ``v`` sat exactly one level deeper than
    ``u`` and loses its only predecessor at that depth; the far side is
    the mirror test through ``v``.  Their union is exactly the rows whose
    distances change (see the module docstring).  Both sides are tested
    in one pass over the stacked rows ``d(., u), d(., v)``.  With the
    edge present ``|d(x, u) - d(x, v)| <= 1``, so "one level deeper" is
    plain ``>``, which is also the ``inf`` guard: a row reaching neither
    endpoint compares ``inf > inf`` as false.  A free slot holds the far
    switch itself and contributes ``d_far >= d_far``.  ``dist`` is
    symmetric, so every read is a contiguous row.
    """
    ends = dist.take([u, v], axis=0)
    deeper = ends[::-1]
    through = deeper > ends
    # ...and no surviving neighbour of the deeper end sits one level nearer
    # x: gathered slot-major, so the minimum runs over whole (2, m) slabs.
    hood = table.take([v, u], axis=0).T
    through &= np.minimum.reduce(dist.take(hood, axis=0), axis=0) >= deeper
    return through[0].nonzero()[0], through[1].nonzero()[0]


def _removal_block(
    dist: np.ndarray, table: np.ndarray, near: np.ndarray, far: np.ndarray
) -> _Step:
    """The ``far x near`` repair step once the edge between the sides is gone.

    ``table`` no longer has the edge.  Every pair ``(x, z)`` with ``z``
    outside ``far`` is exact in ``dist``, so the far entries start at
    ``inf`` and rounds of ``d(x, y) = 1 + min d(x, z)`` over each far
    switch's neighbours ``z`` run until no entry drops; each round can
    only lower entries, and round ``k`` is exact for every pair whose new
    shortest path takes at most ``k - 1`` steps inside ``far``.  The
    block is switch-major (row ``z`` holds ``d(., z)`` over ``near``), so
    each round gathers whole rows; a free slot holds the far switch's own
    id, which never lowers a minimum.
    """
    cols = dist.take(near, axis=0).T.copy()
    old = cols.take(far, axis=0)
    hood = table.take(far, axis=0).T
    cols[far] = _INF
    last: np.ndarray | np.float32 = _INF
    while True:
        new = np.minimum.reduce(cols.take(hood, axis=0), axis=0)
        new += _ONE
        if not np.count_nonzero(new < last):
            return far, near, old, new
        cols[far] = last = new


def _insertion_sides(dist: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of inserted edge ``{u, v}``: rows two levels nearer one end.

    Exactly the rows with ``d(x, u) <= d(x, v) - 2`` and their mirror set
    (see the module docstring), tested on both stacked rows at once.  On
    integers that is ``d(x, u) + 1.5 < d(x, v)``, which a row reaching
    only ``u`` passes and a row reaching neither endpoint fails (``inf <
    inf``), the ``inf`` guard.
    """
    ends = dist.take([u, v], axis=0)
    through = ends + _TWO_LEVELS < ends[::-1]
    return through[0].nonzero()[0], through[1].nonzero()[0]


def _insertion_block(
    dist: np.ndarray, near: np.ndarray, far: np.ndarray, u: int, v: int
) -> _Step:
    """The ``near x far`` repair step: the one detour through ``u -> v``."""
    old = dist.take(near, axis=0).take(far, axis=1)
    detour = dist[u].take(near)[:, None] + (dist[v].take(far) + _ONE)
    return near, far, old, np.minimum(old, detour)


def _store(dist: np.ndarray, rows: np.ndarray, cols: np.ndarray, block: np.ndarray) -> None:
    """Write ``block`` at ``rows x cols`` and its transpose at ``cols x rows``."""
    dist[rows[:, None], cols] = block
    dist[cols[:, None], rows] = block.T


class DynamicDistanceMatrix:
    """Exact switch-graph APSP maintained across edge removals/insertions.

    The one repair engine: degraded :class:`repro.routing.RoutingTables`
    and the :mod:`repro.analysis.resilience` sweeps keep one of these alive
    and repair it per fault/repair instead of re-running a full APSP, and
    :class:`IncrementalEvaluator` extends it for the annealing loop.

    Every mutation is applied immediately and exactly, and the matrix keeps
    ``inf`` entries while the graph is partitioned (both side tests guard
    against ``inf``; see the module docstring).  After any sequence of
    ``remove_edge``/``add_edge`` calls, :attr:`dist` is bit-identical to a
    from-scratch rebuild on the resulting graph, and it is the same array
    throughout: repairs and fallback rebuilds write into it.

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
        self._table = _neighbour_table(CSRAdjacency.from_graph(graph), graph.radix)
        self._row_budget = int(_FALLBACK_FRACTION * self._m)
        self._dist = self._apsp()

    def _apsp(self) -> np.ndarray:
        """Every row by one kernel BFS as float32, with optional row telemetry.

        The kernel reads a CSR, built here from the table and dropped on
        return: only construction and fallback rebuilds need one.  Its
        float64 result is cast once; distances are small integers (and
        ``inf``), which float32 holds exactly.
        """
        csr = _table_csr(self._table)
        rows = np.arange(self._m)
        if self._bfs_timer is None:
            return KERNEL.bfs_distances(csr, rows).astype(np.float32)
        t0 = obs_clock()
        out = KERNEL.bfs_distances(csr, rows)
        self._bfs_timer.observe(obs_clock() - t0)
        self._bfs_counter.inc(self._m)
        return out.astype(np.float32)

    def _edit(self, removed: Sequence[_Edge], added: Sequence[_Edge]) -> int | None:
        """Remove then insert switch edges, repairing :attr:`dist` in place.

        Returns the rows the removals repaired.  Once that count exceeds
        the row budget (``_FALLBACK_FRACTION * m``) the remaining edges
        only update the table, every row is recomputed in one batched BFS
        (the exact fallback, :meth:`_rebuild`), and ``None`` is returned.
        """
        repaired = 0
        exact = True
        for u, v in removed:
            self._unlink(u, v)
            if not exact:
                continue
            near, far = _removal_sides(self._dist, self._table, u, v)
            repaired += len(near) + len(far)
            if repaired > self._row_budget:
                exact = False
            else:
                self._write(*_removal_block(self._dist, self._table, near, far))
        for u, v in added:
            self._link(u, v)
            if exact:
                near, far = _insertion_sides(self._dist, u, v)
                self._write(*_insertion_block(self._dist, near, far, u, v))
        if not exact:
            self._rebuild()
            return None
        return repaired

    def _unlink(self, u: int, v: int) -> None:
        """Free the slots of edge ``{u, v}``; raises before changing anything."""
        self._check_pair(u, v)
        row_u, row_v = self._table[u].tolist(), self._table[v].tolist()
        if v not in row_u or u not in row_v:
            raise ValueError(f"no switch edge {{{u}, {v}}} to remove")
        self._relink(u, row_u.index(v), v, u)
        self._relink(v, row_v.index(u), u, v)

    def _link(self, u: int, v: int) -> None:
        """Fill a free slot of each endpoint, widening a full table by one column."""
        self._check_pair(u, v)
        row_u, row_v = self._table[u].tolist(), self._table[v].tolist()
        if v in row_u or u in row_v:
            raise ValueError(f"switch edge {{{u}, {v}}} already present")
        if u not in row_u or v not in row_v:
            free = np.arange(self._m, dtype=self._table.dtype)[:, None]
            self._table = np.concatenate([self._table, free], axis=1)
            row_u.append(u)
            row_v.append(v)
        self._relink(u, row_u.index(u), u, v)
        self._relink(v, row_v.index(v), v, u)

    def _relink(self, s: int, slot: int, old: int, new: int) -> None:
        """Point ``s``'s table ``slot`` from switch ``old`` to ``new``.

        A free slot holds ``s`` itself.
        """
        self._table[s, slot] = new

    def _write(
        self, rows: np.ndarray, cols: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> None:
        """Store one repair step's ``rows x cols`` block ``new`` (and its transpose).

        ``old`` is the block it replaces (the journal's undo record).
        """
        _store(self._dist, rows, cols, new)

    def _rebuild(self) -> None:
        """Recompute every row in place, so a held :attr:`dist` stays live."""
        self._dist[...] = self._apsp()

    @property
    def num_switches(self) -> int:
        return self._m

    @property
    def dist(self) -> np.ndarray:
        """Live ``(m, m)`` float32 distance matrix, ``inf`` for unreachable.

        This is the engine's working array, not a copy — treat it as
        read-only and re-read it after each mutation.  Its entries are
        small integers, exact in float32; weight them with float64 host
        counts (NumPy then computes in float64), never in float32, whose
        24-bit mantissa a host-weighted sum outgrows.
        """
        return self._dist

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return v in self._table[u].tolist()

    def neighbors(self, u: int) -> np.ndarray:
        """Switch ids adjacent to ``u``, ascending."""
        if not 0 <= u < self._m:
            raise ValueError(f"switch id {u} out of range [0, {self._m})")
        row = self._table[u]
        return np.sort(row[row != u], kind="stable")

    def is_connected(self) -> bool:
        """Whether the switch graph is connected: one O(m) row read.

        :attr:`dist` is the exact all-switch APSP, so the graph is
        connected iff switch 0 reaches every switch.
        """
        return not np.isinf(self._dist[0]).any()

    def remove_edge(self, u: int, v: int) -> int:
        """Remove switch edge ``{u, v}``; returns the repaired row count.

        A removal whose two sides hold more than ``_FALLBACK_FRACTION * m``
        rows (a long ring, say) recomputes all ``m`` rows in one batched
        BFS instead, and returns ``m``.
        """
        self._check_pair(u, v)
        repaired = self._edit([(u, v)], [])
        return self._m if repaired is None else repaired

    def add_edge(self, u: int, v: int) -> None:
        """Insert switch edge ``{u, v}`` (exact one-detour cross block)."""
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

    1. the graph is read once, at construction; from then on the
       evaluator follows the moves it is given, and the caller applies
       committed moves to its own graph,
    2. ``propose(move)`` repairs the matrix and returns the candidate
       h-ASPL; until step 4 the evaluator's state is the candidate's,
    3. optionally, ``extend(move)`` repairs further moves into the same
       pending candidate and returns its new h-ASPL (Fig. 4's second
       swing, scored on top of the first),
    4. ``commit()`` keeps the candidate state (the caller then applies
       the proposal's moves to its graph), or ``rollback()`` restores the
       committed one from either depth.

    The inherited single-edge mutators are not part of this protocol: an
    edit outside ``propose``/``extend`` raises
    :class:`IncrementalEvaluatorError`.

    Parameters
    ----------
    graph:
        The start graph; the evaluator snapshots its structure and host
        counts and never reads it again.
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
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        if graph.num_hosts < 2:
            raise ValueError(
                f"h-ASPL needs at least 2 hosts, graph has {graph.num_hosts}"
            )
        super().__init__(graph, telemetry=telemetry)
        self._n = graph.num_hosts
        self._rows_hist: Histogram | None = None
        if telemetry is not None and telemetry.enabled:
            self._rows_hist = telemetry.histogram(
                "evaluator.repaired_rows_per_move", _ROWS_BOUNDS
            )
        self._k = graph.host_counts().astype(np.float64)
        self._value, self._weighted = self._evaluate(self._dist, self._k)
        #: While a proposal is pending: the committed ``(k, value,
        #: weighted)``, the journal of matrix writes ``(rows, cols, old
        #: block, new block)`` and the journal of table writes ``(switch,
        #: slot, old id)``.
        self._pending: tuple[tuple, list[_Step], list[tuple[int, int, int]]] | None = None
        self.stats = {
            "proposals": 0,
            "extensions": 0,
            "fallbacks": 0,
            "repaired_rows": 0,
        }

    def _edit(self, removed: Sequence[_Edge], added: Sequence[_Edge]) -> int | None:
        if self._pending is None:
            raise IncrementalEvaluatorError("edit the evaluator through propose()")
        return super()._edit(removed, added)

    def _write(
        self, rows: np.ndarray, cols: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> None:
        self._pending[1].append((rows, cols, old, new))
        _store(self._dist, rows, cols, new)

    def _relink(self, s: int, slot: int, old: int, new: int) -> None:
        self._pending[2].append((s, slot, old))
        self._table[s, slot] = new

    def _rebuild(self) -> None:
        # The whole matrix as one journaled block: rollback restores it in place.
        everything = np.arange(self._m)
        self._write(everything, everything, self._dist.copy(), self._apsp())

    # ------------------------------------------------------------------ #
    # Value computation
    # ------------------------------------------------------------------ #

    @property
    def value(self) -> float:
        """h-ASPL of the current state (matches ``metrics.h_aspl``)."""
        return self._value

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
        weighted = weighted_host_distance_sum(sub, kb)
        return h_aspl_from_weighted_sum(weighted, self._n), weighted

    def _host_delta_weighted(
        self, host_deltas: list[tuple[int, int]], weighted: float
    ) -> float | None:
        """Apply swing host-count deltas to the weighted sum, term by term.

        Changing ``k[s]`` by ``d`` against the (already repaired) matrix
        adds ``2 d sum_b k_b (d(s,b) + 2) + 2 d^2`` — with the diagonal
        convention ``d(s,s) + 2 = 2`` folded in by reading the full row.
        Each delta's sum is one ``dist[s] . k`` against the current
        (float64) counts, plus ``2 n`` and ``d' (d(s, s') + 2)`` for every
        earlier delta ``(s', d')``; all are exact integers.  A row holding
        ``inf`` (an unreachable switch, perhaps hostless) would turn ``inf
        * 0`` into ``nan``, so it returns ``None`` and the caller takes the
        full sum over the host-bearing switches.
        """
        rows = self._dist.take([s for s, _ in host_deltas], axis=0)
        if np.isinf(rows).any():
            return None
        sums = rows.dot(self._k).tolist()
        for j, (_, d) in enumerate(host_deltas):
            w = sums[j] + 2.0 * self._n
            for t, d_t in host_deltas[:j]:
                w += d_t * (rows.item(j, t) + 2.0)
            weighted = weighted + 2.0 * d * w + 2.0 * (d * d)
        return weighted

    # ------------------------------------------------------------------ #
    # propose / extend / commit / rollback
    # ------------------------------------------------------------------ #

    def propose(self, move: Move) -> float:
        """Candidate h-ASPL after ``move`` on the committed state.

        The matrix is repaired in place and every repair step journaled;
        call :meth:`commit` to keep the candidate or :meth:`rollback` to
        restore the committed state.  A second ``propose`` before either
        is a protocol error (:meth:`extend` continues a pending one).
        """
        if self._pending is not None:
            raise IncrementalEvaluatorError(
                "propose() called with a proposal already pending; "
                "commit() or rollback() first"
            )
        self.stats["proposals"] += 1
        self._pending = ((self._k, self._value, self._weighted), [], [])
        return self._score(move)

    def extend(self, move: Move) -> float:
        """Candidate h-ASPL after ``move`` applied on top of the pending ones.

        The repair continues from the pending candidate's matrix, counts
        and weighted sum and journals into the same journal, so
        :meth:`rollback` still restores the committed state and
        :meth:`commit` keeps both.  Any exception rolls back the whole
        proposal.
        """
        if self._pending is None:
            raise IncrementalEvaluatorError(
                "extend() without a pending proposal; propose() first"
            )
        self.stats["extensions"] += 1
        return self._score(move)

    def _score(self, move: Move) -> float:
        """Repair ``move`` into the pending candidate and return its h-ASPL."""
        committed, journal, _ = self._pending
        try:
            removed, added = move.edge_changes()
            host_deltas = move.host_count_changes()
            start = len(journal)
            repaired = self._edit(removed, added)
            if repaired is None:
                self.stats["fallbacks"] += 1
            else:
                self.stats["repaired_rows"] += repaired
                if self._rows_hist is not None:
                    self._rows_hist.observe(repaired)

            weighted: float | None = None
            if repaired is not None and math.isfinite(self._weighted):
                weighted = self._repaired_sum(journal, start)
                if weighted is not None and host_deltas:
                    weighted = self._host_delta_weighted(host_deltas, weighted)
            if host_deltas:
                if self._k is committed[0]:
                    self._k = self._k.copy()
                for switch, delta in host_deltas:
                    self._k[switch] += delta
            if weighted is None:
                self._value, self._weighted = self._evaluate(self._dist, self._k)
            else:
                self._value = h_aspl_from_weighted_sum(weighted, self._n)
                self._weighted = weighted
        except BaseException:
            self.rollback()
            raise
        return self._value

    def _repaired_sum(self, journal: list[_Step], start: int) -> float | None:
        """The weighted sum after the journaled steps from ``start`` on.

        Each step changed exactly its ``rows x cols`` block and the
        transpose, so it adds ``2 k[rows] . (new - old) . k[cols]`` with
        the current host counts (host deltas are applied afterwards, term
        by term).  The float32 block delta is exact, and ``dot`` computes
        it against the float64 counts in float64.  A step's blocks are
        each all finite or all ``inf``: the two sides lie in one
        component, which a removal either keeps or splits between them,
        and an insertion either finds or joins.  So one corner entry tells
        whether the step split or joined components; then ``None`` is
        returned and the caller falls back to the full double sum.
        """
        dw = 0.0
        k = self._k
        for rows, cols, old, new in journal[start:]:
            delta = new - old
            if math.isinf(delta.item(0)):
                return None
            dw += float(k.take(rows).dot(delta).dot(k.take(cols)))
        return self._weighted + 2.0 * dw

    def commit(self) -> None:
        """Keep the pending proposal as the committed state."""
        if self._pending is None:
            raise IncrementalEvaluatorError("commit() without a pending proposal")
        self._pending = None

    def rollback(self) -> None:
        """Discard the pending proposal (restores journaled blocks in place).

        Blocks and table slots are restored newest-first: later steps'
        blocks may overlap earlier ones, and reverse order replays the edit
        history backwards.
        """
        if self._pending is None:
            raise IncrementalEvaluatorError("rollback() without a pending proposal")
        committed, journal, relinked = self._pending
        self._k, self._value, self._weighted = committed
        dist = self._dist
        for rows, cols, old, _new in reversed(journal):
            _store(dist, rows, cols, old)
        table = self._table
        for s, slot, old_id in reversed(relinked):
            table[s, slot] = old_id
        self._pending = None
