"""repro — reproduction of "Order/Radix Problem: Towards Low End-to-End
Latency Interconnection Networks" (Yasudo et al., ICPP 2017).

Public API highlights
---------------------
- :class:`repro.HostSwitchGraph` — the two-sorted network model.
- :func:`repro.h_aspl`, :func:`repro.diameter` — the paper's metrics.
- :func:`repro.h_aspl_lower_bound`, :func:`repro.diameter_lower_bound`,
  :func:`repro.continuous_moore_bound`, :func:`repro.optimal_switch_count`
  — Theorems 1-2 and the ``m_opt`` predictor.
- :func:`repro.anneal`, :func:`repro.solve_orp` — the randomized search and
  the full "proposed topology" pipeline.
- :mod:`repro.compose` — hierarchical block composition to ``n >= 10^5``
  hosts with a closed-form (exact) h-ASPL predictor.
- :mod:`repro.topologies` — torus / dragonfly / fat-tree comparators.
- :mod:`repro.simulation` — flow-level MPI simulator + NAS skeletons.
- :mod:`repro.partition` — multilevel partitioner (bandwidth metric).
- :mod:`repro.layout` — floorplan, cabling, power and cost models.
"""

from repro.core import (
    AnnealingResult,
    AnnealingSchedule,
    HostSwitchGraph,
    ODPSolution,
    ORPSolution,
    anneal,
    solve_odp,
    clique_host_switch_graph,
    continuous_moore_bound,
    diameter,
    diameter_lower_bound,
    h_aspl,
    h_aspl_and_diameter,
    h_aspl_lower_bound,
    lacin_h_aspl_baseline,
    lacin_max_hosts,
    lacin_switch_count,
    load_graph,
    moore_aspl_lower_bound,
    optimal_switch_count,
    random_host_switch_graph,
    random_regular_host_switch_graph,
    regular_h_aspl_lower_bound,
    save_graph,
    shimizu_mori_aspl_lower_bound,
    shimizu_mori_h_aspl_lower_bound,
    solve_orp,
    star_host_switch_graph,
)

__version__ = "1.0.0"

__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "HostSwitchGraph",
    "ODPSolution",
    "ORPSolution",
    "anneal",
    "solve_odp",
    "clique_host_switch_graph",
    "continuous_moore_bound",
    "diameter",
    "diameter_lower_bound",
    "h_aspl",
    "h_aspl_and_diameter",
    "h_aspl_lower_bound",
    "lacin_h_aspl_baseline",
    "lacin_max_hosts",
    "lacin_switch_count",
    "load_graph",
    "moore_aspl_lower_bound",
    "optimal_switch_count",
    "random_host_switch_graph",
    "random_regular_host_switch_graph",
    "regular_h_aspl_lower_bound",
    "save_graph",
    "shimizu_mori_aspl_lower_bound",
    "shimizu_mori_h_aspl_lower_bound",
    "solve_orp",
    "star_host_switch_graph",
    "__version__",
]
