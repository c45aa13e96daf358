"""Plain-text save/load of host-switch graphs and solver-result round trips.

Graph format (line-oriented, ``#`` comments allowed):

.. code-block:: text

    HSG v1
    n 16 m 4 r 6
    switch-edges 5
    0 1
    0 2
    ...
    hosts 0 0 0 1 1 2 ...

The ``hosts`` line lists the attachment switch of hosts ``0..n-1`` in order,
so a round trip preserves host identities (and hence any rank mapping built
on them).

Solver results (:class:`~repro.core.solver.ORPSolution` with its nested
:class:`~repro.core.annealing.AnnealingResult` and
:class:`~repro.core.solver.RestartSummary` records) round-trip through
plain JSON-ready dicts via ``*_to_dict`` / ``*_from_dict``; graphs are
embedded as HSG v1 text so one dict is self-contained, and
:func:`float_to_json` / :func:`float_from_json` carry the infinite floats
of other result documents.  The campaign
result store (:mod:`repro.campaign.store`) persists exactly these dicts.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

from repro.core.hostswitch import HostSwitchGraph

__all__ = [
    "RESULT_FORMAT",
    "graph_to_text",
    "graph_from_text",
    "save_graph",
    "load_graph",
    "float_to_json",
    "float_from_json",
    "restart_summary_to_dict",
    "restart_summary_from_dict",
    "annealing_result_to_dict",
    "annealing_result_from_dict",
    "orp_solution_to_dict",
    "orp_solution_from_dict",
]

_MAGIC = "HSG v1"


def graph_to_text(graph: HostSwitchGraph) -> str:
    """Serialise ``graph`` to the HSG v1 text format."""
    lines = [
        _MAGIC,
        f"n {graph.num_hosts} m {graph.num_switches} r {graph.radix}",
        f"switch-edges {graph.num_switch_edges}",
    ]
    for a, b in sorted(graph.switch_edges()):
        lines.append(f"{a} {b}")
    attachments = " ".join(str(s) for s in graph.host_attachments())
    lines.append(f"hosts {attachments}".rstrip())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> HostSwitchGraph:
    """Parse the HSG v1 text format back into a graph (validated)."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"not an HSG v1 document (first line {lines[:1]!r})")
    header = lines[1].split()
    if header[0::2] != ["n", "m", "r"]:
        raise ValueError(f"malformed header line: {lines[1]!r}")
    n, m, r = (int(v) for v in header[1::2])
    count_line = lines[2].split()
    if count_line[0] != "switch-edges":
        raise ValueError(f"expected 'switch-edges', got {lines[2]!r}")
    num_edges = int(count_line[1])
    edge_lines = lines[3 : 3 + num_edges]
    if len(edge_lines) != num_edges:
        raise ValueError(f"expected {num_edges} edge lines, found {len(edge_lines)}")
    edges: list[tuple[int, int]] = []
    for ln in edge_lines:
        fields = ln.split()
        if len(fields) != 2 or not all(f.lstrip("-").isdigit() for f in fields):
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(fields[0]), int(fields[1])))
    hosts_line = lines[3 + num_edges].split()
    if hosts_line[0] != "hosts":
        raise ValueError(f"expected 'hosts' line, got {lines[3 + num_edges]!r}")
    attachments = [int(v) for v in hosts_line[1:]]
    if len(attachments) != n:
        raise ValueError(f"header says n={n} but hosts line has {len(attachments)}")
    return HostSwitchGraph.from_edges(m, r, edges, attachments)


def save_graph(graph: HostSwitchGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in HSG v1 format."""
    Path(path).write_text(graph_to_text(graph))


def load_graph(path: str | Path) -> HostSwitchGraph:
    """Read a graph previously written by :func:`save_graph`."""
    return graph_from_text(Path(path).read_text())


# --------------------------------------------------------------------- #
# Solver-result round trips (JSON-ready dicts)
# --------------------------------------------------------------------- #

#: Format of every result document this module writes.
RESULT_FORMAT = "repro.result/v1"


def float_to_json(value: float) -> float | str:
    """``value`` for a JSON document: an infinity becomes the string ``"inf"``.

    Strict JSON has no infinities (``canonical_json`` refuses them), yet
    bounds past their range and disconnected trials measure as ``inf``.
    """
    return "inf" if math.isinf(value) else value


def float_from_json(value: float | str) -> float:
    """Inverse of :func:`float_to_json`."""
    return float("inf") if value == "inf" else float(value)


def _check_format(data: dict[str, Any], expected_kind: str) -> None:
    if data.get("format") != RESULT_FORMAT:
        raise ValueError(
            f"not a {RESULT_FORMAT} document (format={data.get('format')!r})"
        )
    if data.get("kind") != expected_kind:
        raise ValueError(
            f"expected kind {expected_kind!r}, got {data.get('kind')!r}"
        )


def restart_summary_to_dict(summary: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.core.solver.RestartSummary` to a dict."""
    return {
        "format": RESULT_FORMAT,
        "kind": "restart_summary",
        "index": summary.index,
        "seed_spawn_key": list(summary.seed_spawn_key),
        "initial_h_aspl": summary.initial_h_aspl,
        "h_aspl": summary.h_aspl,
        "steps": summary.steps,
        "accepted": summary.accepted,
        "rejected": summary.rejected,
        "wall_time_s": summary.wall_time_s,
    }


def restart_summary_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.core.solver.RestartSummary` from a dict."""
    from repro.core.solver import RestartSummary

    _check_format(data, "restart_summary")
    return RestartSummary(
        index=int(data["index"]),
        seed_spawn_key=tuple(int(k) for k in data["seed_spawn_key"]),
        initial_h_aspl=float(data["initial_h_aspl"]),
        h_aspl=float(data["h_aspl"]),
        steps=int(data["steps"]),
        accepted=int(data["accepted"]),
        rejected=int(data["rejected"]),
        wall_time_s=float(data["wall_time_s"]),
    )


def annealing_result_to_dict(result: Any) -> dict[str, Any]:
    """Serialise an :class:`~repro.core.annealing.AnnealingResult` to a dict.

    The best graph is embedded as HSG v1 text; the ``history`` samples keep
    their ``(step, current, best)`` structure as 3-element lists.
    """
    return {
        "format": RESULT_FORMAT,
        "kind": "annealing_result",
        "graph": graph_to_text(result.graph),
        "h_aspl": result.h_aspl,
        "diameter": result.diameter,
        "operation": result.operation,
        "steps": result.steps,
        "accepted": result.accepted,
        "improved": result.improved,
        "initial_h_aspl": result.initial_h_aspl,
        "history": [[int(s), float(c), float(b)] for s, c, b in result.history],
        "wall_time_s": result.wall_time_s,
    }


def annealing_result_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild an :class:`~repro.core.annealing.AnnealingResult` from a dict."""
    from repro.core.annealing import AnnealingResult

    _check_format(data, "annealing_result")
    return AnnealingResult(
        graph=graph_from_text(data["graph"]),
        h_aspl=float(data["h_aspl"]),
        diameter=float(data["diameter"]),
        operation=str(data["operation"]),
        steps=int(data["steps"]),
        accepted=int(data["accepted"]),
        improved=int(data["improved"]),
        initial_h_aspl=float(data["initial_h_aspl"]),
        history=[(int(s), float(c), float(b)) for s, c, b in data["history"]],
        wall_time_s=float(data["wall_time_s"]),
    )


def orp_solution_to_dict(solution: Any) -> dict[str, Any]:
    """Serialise an :class:`~repro.core.solver.ORPSolution` to a dict.

    Nested ``annealing`` / ``restarts`` records (including the restart
    telemetry accounting) round-trip too, so a solution served back from a
    campaign store is indistinguishable from a freshly solved one.
    """
    return {
        "format": RESULT_FORMAT,
        "kind": "orp_solution",
        "graph": graph_to_text(solution.graph),
        "n": solution.n,
        "r": solution.r,
        "m": solution.m,
        "h_aspl": solution.h_aspl,
        "diameter": solution.diameter,
        "h_aspl_lower_bound": solution.h_aspl_lower_bound,
        "diameter_lower_bound": solution.diameter_lower_bound,
        "moore_bound_at_m": solution.moore_bound_at_m,
        "m_predicted": solution.m_predicted,
        "annealing": (
            None
            if solution.annealing is None
            else annealing_result_to_dict(solution.annealing)
        ),
        "restarts": [restart_summary_to_dict(s) for s in solution.restarts],
    }


def orp_solution_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild an :class:`~repro.core.solver.ORPSolution` from a dict."""
    from repro.core.solver import ORPSolution

    _check_format(data, "orp_solution")
    return ORPSolution(
        graph=graph_from_text(data["graph"]),
        n=int(data["n"]),
        r=int(data["r"]),
        m=int(data["m"]),
        h_aspl=float(data["h_aspl"]),
        diameter=float(data["diameter"]),
        h_aspl_lower_bound=float(data["h_aspl_lower_bound"]),
        diameter_lower_bound=int(data["diameter_lower_bound"]),
        moore_bound_at_m=float(data["moore_bound_at_m"]),
        m_predicted=int(data["m_predicted"]),
        annealing=(
            None
            if data.get("annealing") is None
            else annealing_result_from_dict(data["annealing"])
        ),
        restarts=[restart_summary_from_dict(s) for s in data.get("restarts", [])],
    )
