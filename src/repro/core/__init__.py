"""Core of the reproduction: host-switch graphs and the Order/Radix Problem.

This subpackage implements the paper's primary contribution:

- :mod:`repro.core.hostswitch` — the two-sorted host-switch graph model.
- :mod:`repro.core.metrics` — h-ASPL / diameter computation.
- :mod:`repro.core.bounds` — Theorems 1 and 2 plus the Moore bound.
- :mod:`repro.core.moore` — the continuous Moore bound and ``m_opt``.
- :mod:`repro.core.operations` — swap / swing / 2-neighbor swing moves.
- :mod:`repro.core.annealing` — simulated-annealing ORP search.
- :mod:`repro.core.construct` — initial graph constructions.
- :mod:`repro.core.solver` — the end-to-end "proposed topology" pipeline.
- :mod:`repro.core.serialization` — save/load of host-switch graphs.
"""

from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import DynamicDistanceMatrix
from repro.core.metrics import (
    DegradedMetrics,
    degraded_metrics,
    degraded_metrics_from_distances,
    diameter,
    h_aspl,
    h_aspl_and_diameter,
    host_distance_matrix,
    switch_aspl,
    switch_distance_matrix,
)
from repro.core.odp import ODPSolution, solve_odp
from repro.core.bounds import (
    diameter_lower_bound,
    h_aspl_lower_bound,
    lacin_h_aspl_baseline,
    lacin_max_hosts,
    lacin_switch_count,
    moore_aspl_lower_bound,
    regular_h_aspl_lower_bound,
    shimizu_mori_aspl_lower_bound,
    shimizu_mori_h_aspl_lower_bound,
)
from repro.core.moore import continuous_moore_bound, optimal_switch_count
from repro.core.annealing import AnnealingResult, AnnealingSchedule, anneal
from repro.core.solver import ORPSolution, solve_orp
from repro.core.construct import (
    clique_host_switch_graph,
    random_host_switch_graph,
    random_regular_host_switch_graph,
    star_host_switch_graph,
)
from repro.core.serialization import graph_from_text, graph_to_text, load_graph, save_graph

__all__ = [
    "HostSwitchGraph",
    "DynamicDistanceMatrix",
    "DegradedMetrics",
    "degraded_metrics",
    "degraded_metrics_from_distances",
    "ODPSolution",
    "solve_odp",
    "diameter",
    "h_aspl",
    "h_aspl_and_diameter",
    "host_distance_matrix",
    "switch_aspl",
    "switch_distance_matrix",
    "diameter_lower_bound",
    "h_aspl_lower_bound",
    "lacin_h_aspl_baseline",
    "lacin_max_hosts",
    "lacin_switch_count",
    "moore_aspl_lower_bound",
    "regular_h_aspl_lower_bound",
    "shimizu_mori_aspl_lower_bound",
    "shimizu_mori_h_aspl_lower_bound",
    "continuous_moore_bound",
    "optimal_switch_count",
    "AnnealingResult",
    "AnnealingSchedule",
    "anneal",
    "ORPSolution",
    "solve_orp",
    "clique_host_switch_graph",
    "random_host_switch_graph",
    "random_regular_host_switch_graph",
    "star_host_switch_graph",
    "graph_from_text",
    "graph_to_text",
    "load_graph",
    "save_graph",
]
