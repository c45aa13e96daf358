"""The classic Order/Degree Problem (ODP) — the paper's point of departure.

Section 1 motivates ORP by contrast with the **order/degree problem**:
given the number of vertices ``n`` and maximum degree ``d``, find an
undirected graph minimising the (plain) ASPL.  This is the Graph Golf
competition problem ([4] in the paper) tackled by the prior local-search
work ([15]-[17]) whose swap operation Section 5.1 reuses.

The module reuses the library's machinery by embedding ODP into ORP: an
ODP instance on ``n`` vertices of degree ``d`` is a *regular host-switch
graph* with exactly one host per switch and radix ``d + 1``; its h-ASPL is
the ODP ASPL plus exactly 2 (Formula (1) with ``n = m``).  ``solve_odp``
exposes plain-graph inputs/outputs so users never see the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.annealing import AnnealingResult, AnnealingSchedule, anneal
from repro.core.bounds import moore_aspl_lower_bound
from repro.core.construct import random_regular_switch_topology
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import switch_distance_matrix
from repro.obs import TelemetryRegistry
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["ODPSolution", "solve_odp", "odp_aspl_lower_bound"]


def odp_aspl_lower_bound(num_vertices: int, degree: int) -> float:
    """The Moore bound on the ODP objective (plain ASPL)."""
    return moore_aspl_lower_bound(num_vertices, degree)


@dataclass
class ODPSolution:
    """A solved Order/Degree Problem instance."""

    num_vertices: int
    degree: int
    edges: list[tuple[int, int]]
    aspl: float
    diameter: int
    aspl_lower_bound: float
    annealing: AnnealingResult

    @property
    def gap(self) -> float:
        """Relative gap of the achieved ASPL over the Moore bound."""
        return self.aspl / self.aspl_lower_bound - 1.0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        return (
            f"ODP(n={self.num_vertices}, d={self.degree}): "
            f"ASPL = {self.aspl:.4f} (Moore bound {self.aspl_lower_bound:.4f}, "
            f"gap {100 * self.gap:.2f}%), diameter = {self.diameter}"
        )


def _embed(num_vertices: int, degree: int, edges) -> HostSwitchGraph:
    """ODP instance as a 1-host-per-switch host-switch graph."""
    return HostSwitchGraph.from_edges(
        num_vertices, degree + 1, edges, range(num_vertices)
    )


def solve_odp(
    num_vertices: int,
    degree: int,
    *,
    schedule: AnnealingSchedule | None = None,
    restarts: int = 1,
    seed: int | np.random.Generator | None = 0,
    telemetry: TelemetryRegistry | None = None,
) -> ODPSolution:
    """Minimise the ASPL of a ``degree``-regular graph on ``num_vertices``.

    Runs the paper's swap-operation simulated annealing on the host-switch
    embedding (one host per vertex keeps the search regular: swaps never
    touch host edges).  The ODP ASPL is recovered as ``h-ASPL - 2``.

    Parameters mirror :func:`repro.core.solver.solve_orp`.
    """
    check_positive_int(num_vertices, "num_vertices")
    check_positive_int(degree, "degree")
    check_positive_int(restarts, "restarts")
    if degree >= num_vertices:
        raise ValueError(
            f"degree d={degree} must be < num_vertices n={num_vertices}"
        )
    rng = as_generator(seed)
    if schedule is None:
        schedule = AnnealingSchedule()

    best: AnnealingResult | None = None
    for _ in range(restarts):
        edges = random_regular_switch_topology(num_vertices, degree, seed=rng)
        start = _embed(num_vertices, degree, edges)
        result = anneal(
            start, operation="swap", schedule=schedule, seed=rng,
            telemetry=telemetry,
        )
        if best is None or result.h_aspl < best.h_aspl:
            best = result
    assert best is not None

    graph = best.graph
    # One APSP pass serves both the ASPL and the diameter.
    dist = switch_distance_matrix(graph)
    m = graph.num_switches
    if np.isinf(dist).any():
        aspl = float("inf")
    else:
        aspl = float(dist.sum() / (m * (m - 1))) if m > 1 else 0.0
    return ODPSolution(
        num_vertices=num_vertices,
        degree=degree,
        edges=sorted(graph.switch_edges()),
        aspl=aspl,
        diameter=int(dist.max()),
        aspl_lower_bound=odp_aspl_lower_bound(num_vertices, degree),
        annealing=best,
    )
