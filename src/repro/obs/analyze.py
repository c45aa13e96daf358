"""Trace analytics: span trees, time attribution, and flamegraph export.

A ``repro.obs/v1`` trace records every span at *exit* time with its
duration, nesting depth, and parent span name, so a JSONL stream holds the
span forest in post-order: children always precede their parent.
:func:`build_span_trees` reconstructs the forest from that order alone —
no span IDs needed.  A serial solve is one tree: each restart's
``anneal.run`` nests under ``solver.anneal_restarts``.  The builder is also
**merge-aware**: snapshots merged in from ``solve_orp(jobs=)`` pool workers
or campaign pool workers re-emit each worker's buffered spans as a
contiguous run rooted at depth 0, so every worker contributes its own trees
and aggregation sums across all of them.

On top of the forest:

- :func:`span_rollup` — per-name count / cumulative / **self-time** /
  max attribution (self time = duration minus the time the direct
  children cover: the union of their intervals, so children that ran at
  once, like a parallel fan-out's workers, are not subtracted twice);
- :func:`critical_path` — the heaviest root-to-leaf chain of a tree;
- :func:`folded_stacks` / :func:`format_folded` — ``root;child;leaf N``
  folded-stack lines (self time in integer microseconds), the input
  format of standard flamegraph renderers.  Per tree whose children never
  overlap, the folded values sum back to the root's cumulative duration
  exactly;
- :func:`analyze_report` — the ``repro telemetry analyze`` text report:
  span trees, attribution table, critical path, per-phase annealing
  breakdown, and per-kernel timer breakdown.

Truncated traces (a killed worker whose parent span never exited) leave
orphaned subtrees; they surface as extra roots flagged ``orphaned`` rather
than being dropped, so partial traces still account for all recorded time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SpanNode",
    "build_span_trees",
    "span_rollup",
    "critical_path",
    "folded_stacks",
    "format_folded",
    "analyze_report",
]


@dataclass
class SpanNode:
    """One reconstructed span with its claimed children."""

    name: str
    ts: float
    """Wall-clock exit timestamp (spans are recorded when they close)."""
    duration_s: float
    depth: int
    parent: str | None
    status: str
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    orphaned: bool = False
    """True when the recorded parent never exited (truncated trace)."""

    @property
    def start_ts(self) -> float:
        return self.ts - self.duration_s

    @property
    def self_time_s(self) -> float:
        """Duration not covered by any direct child (clamped at 0).

        Subtracts the union of the children's ``[start_ts, ts]``
        intervals, clipped to this span's own, so children that ran at
        once count once.  Sequential children inside the span subtract
        exactly their durations.
        """
        covered = 0.0
        reach = self.start_ts  # covered up to here
        for child in sorted(self.children, key=lambda c: c.start_ts):
            # The child's part before ``reach`` or after this span's end
            # is covered already or lies outside it.
            cut = max(0.0, reach - child.start_ts) + max(0.0, child.ts - self.ts)
            covered += max(0.0, child.duration_s - cut)
            reach = max(reach, child.ts)
        return max(0.0, self.duration_s - covered)

    @property
    def concurrency(self) -> int:
        """Most direct children running at once (1 when they ran one
        after another, 0 without children)."""
        # At equal times an end (-1) sorts before a start: back-to-back
        # children do not overlap.
        edges = sorted([(c.start_ts, 1) for c in self.children]
                       + [(c.ts, -1) for c in self.children])
        running = peak = 0
        for _, step in edges:
            running += step
            peak = max(peak, running)
        return peak


def build_span_trees(records: list[dict[str, Any]]) -> list[SpanNode]:
    """Reconstruct the span forest from schema-valid records in file order.

    Exit order is post-order: when a span at depth ``d`` appears, the
    unclaimed spans at depth ``d + 1`` naming it as parent are exactly its
    children.  Spans whose parent never exits (killed worker, crashed run)
    stay unclaimed and are returned as additional roots with
    ``orphaned=True``; depth-0 spans are ordinary roots.  Non-span records
    are ignored, so a raw ``load_jsonl`` record list can be passed whole.
    """
    pending: dict[int, list[SpanNode]] = {}
    roots: list[SpanNode] = []
    for record in records:
        if record.get("kind") != "span":
            continue
        node = SpanNode(
            name=record["name"],
            ts=float(record["ts"]),
            duration_s=float(record["duration_s"]),
            depth=int(record["depth"]),
            parent=record.get("parent"),
            status=record.get("status", "ok"),
            attrs=dict(record.get("attrs") or {}),
        )
        candidates = pending.get(node.depth + 1, [])
        if candidates:
            claimed = [c for c in candidates if c.parent == node.name]
            if claimed:
                node.children = claimed
                pending[node.depth + 1] = [c for c in candidates if c.parent != node.name]
        if node.depth == 0:
            roots.append(node)
        else:
            pending.setdefault(node.depth, []).append(node)
    # Anything still pending has a parent that never exited: surface the
    # subtree instead of losing it (truncated multiprocess traces).
    for depth in sorted(pending):
        for node in pending[depth]:
            node.orphaned = True
            roots.append(node)
    roots.sort(key=lambda n: n.start_ts)
    return roots


def _walk(roots: list[SpanNode]):
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def span_rollup(roots: list[SpanNode]) -> dict[str, dict[str, float]]:
    """Per-span-name attribution across the whole forest.

    Returns ``name -> {count, total_s, self_s, max_s, errors}`` where
    ``total_s`` is cumulative (wall-clock inside the span) and ``self_s``
    excludes the time the direct children cover
    (:attr:`SpanNode.self_time_s`).  Same-named spans from
    merged worker snapshots aggregate into one row.
    """
    out: dict[str, dict[str, float]] = {}
    for node in _walk(roots):
        row = out.setdefault(
            node.name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "errors": 0},
        )
        row["count"] += 1
        row["total_s"] += node.duration_s
        row["self_s"] += node.self_time_s
        row["max_s"] = max(row["max_s"], node.duration_s)
        if node.status == "error":
            row["errors"] += 1
    return out


def critical_path(root: SpanNode) -> list[SpanNode]:
    """The heaviest root-to-leaf chain: descend into the longest child."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: c.duration_s)
        path.append(node)
    return path


def folded_stacks(roots: list[SpanNode]) -> dict[str, float]:
    """Self-time-per-stack map: ``"root;child;leaf" -> seconds``.

    Each node contributes its *self* time under its full ancestry path, so
    for every tree whose children never overlap the values sum back to the
    root's cumulative duration (children's time is never double-counted).
    Where children ran at once, each still contributes its whole time and
    the sum exceeds the root's: a flamegraph of it reads as time summed
    over workers, not wall time.  Identical stacks — e.g. the same span
    chain across merged restarts — accumulate.
    """
    folded: dict[str, float] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.name}" if prefix else node.name
        folded[stack] = folded.get(stack, 0.0) + node.self_time_s
        for child in node.children:
            visit(child, stack)

    for root in roots:
        visit(root, "")
    return folded


def format_folded(folded: dict[str, float]) -> str:
    """Render folded stacks as ``stack microseconds`` lines (flamegraph.pl
    / speedscope input format), heaviest stack first."""
    lines = [
        f"{stack} {round(seconds * 1e6)}"
        for stack, seconds in sorted(folded.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Text report
# --------------------------------------------------------------------- #


def _tree_lines(node: SpanNode, indent: int = 0) -> list[str]:
    mark = " [orphaned: parent never exited]" if node.orphaned else ""
    err = " [error]" if node.status == "error" else ""
    concurrency = node.concurrency
    overlap = f" [{concurrency} concurrent children]" if concurrency > 1 else ""
    lines = [
        f"{'  ' * indent}{node.name}  {node.duration_s:.4f}s "
        f"(self {node.self_time_s:.4f}s){overlap}{err}{mark}"
    ]
    for child in node.children:
        lines.extend(_tree_lines(child, indent + 1))
    return lines


def _phase_section(records: list[dict[str, Any]]) -> list[str]:
    from repro.analysis.report import format_table

    phases = [r for r in records
              if r.get("kind") == "event" and r.get("name") == "anneal.phase"]
    if not phases:
        return []
    rows = []
    for ev in phases:
        f = ev["fields"]
        rows.append([
            f.get("step"),
            f"{f.get('temperature', 0.0):.2e}",
            f"{f.get('acceptance_rate', 0.0):.3f}",
            f"{f.get('proposals_per_sec', 0.0):.0f}",
            f"{f.get('best', float('nan')):.4f}",
        ])
    table = format_table(
        ["step", "temp", "accept", "prop/s", "best h-ASPL"],
        rows,
        title="annealing phases (all merged restarts, trace order)",
    )
    return [table, ""]


def _timer_section(records: list[dict[str, Any]]) -> list[str]:
    from repro.analysis.report import format_table

    timers: dict[str, dict[str, Any]] = {}
    for r in records:
        if r.get("kind") == "timer":  # last flush per name wins
            timers[r["name"]] = r
    if not timers:
        return []
    rows = []
    for name, r in sorted(timers.items(), key=lambda kv: -float(kv[1]["total_s"])):
        count = int(r["count"])
        total = float(r["total_s"])
        mean = total / count if count else 0.0
        rows.append([name, count, f"{total:.4f}", f"{mean:.6f}", f"{float(r['max_s']):.6f}"])
    return [format_table(["timer", "count", "total s", "mean s", "max s"],
                         rows, title="per-kernel timer breakdown"), ""]


def analyze_report(records: list[dict[str, Any]]) -> str:
    """Full trace-analytics report for ``repro telemetry analyze``."""
    from repro.analysis.report import format_table

    roots = build_span_trees(records)
    sections: list[str] = [
        f"trace analytics: {len(records)} records, "
        f"{sum(1 for _ in _walk(roots))} spans in {len(roots)} tree(s)",
        "",
    ]
    if roots:
        sections.append("span trees:")
        for root in roots:
            sections.extend(_tree_lines(root, 1))
        sections.append("")
        rollup = span_rollup(roots)
        rows = [
            [name, int(row["count"]), f"{row['total_s']:.4f}",
             f"{row['self_s']:.4f}", f"{row['max_s']:.4f}", int(row["errors"])]
            for name, row in sorted(rollup.items(), key=lambda kv: -kv[1]["total_s"])
        ]
        sections.append(format_table(
            ["span", "count", "cumulative s", "self s", "max s", "errors"],
            rows, title="time attribution (cumulative vs self)",
        ))
        sections.append("")
        heaviest = max(roots, key=lambda r: r.duration_s)
        chain = " -> ".join(f"{n.name} ({n.duration_s:.4f}s)"
                            for n in critical_path(heaviest))
        sections.append(f"critical path: {chain}")
        sections.append("")
    sections.extend(_phase_section(records))
    sections.extend(_timer_section(records))
    if len(sections) == 2:
        sections.append("(no spans or recognised events in this trace)")
    return "\n".join(sections).rstrip("\n")
