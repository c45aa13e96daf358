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

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.core.hostswitch": ("HostSwitchGraph",),
        "repro.core.incremental": ("DynamicDistanceMatrix",),
        "repro.core.metrics": (
            "DegradedMetrics",
            "degraded_metrics",
            "degraded_metrics_from_distances",
            "diameter",
            "h_aspl",
            "h_aspl_and_diameter",
            "host_distance_matrix",
            "switch_aspl",
            "switch_distance_matrix",
        ),
        "repro.core.odp": ("ODPSolution", "solve_odp"),
        "repro.core.bounds": (
            "diameter_lower_bound",
            "h_aspl_lower_bound",
            "lacin_h_aspl_baseline",
            "lacin_max_hosts",
            "lacin_switch_count",
            "moore_aspl_lower_bound",
            "regular_h_aspl_lower_bound",
            "shimizu_mori_aspl_lower_bound",
            "shimizu_mori_h_aspl_lower_bound",
        ),
        "repro.core.moore": ("continuous_moore_bound", "optimal_switch_count"),
        "repro.core.annealing": ("AnnealingResult", "AnnealingSchedule", "anneal"),
        "repro.core.solver": ("ORPSolution", "solve_orp"),
        "repro.core.construct": (
            "clique_host_switch_graph",
            "random_host_switch_graph",
            "random_regular_host_switch_graph",
            "star_host_switch_graph",
        ),
        "repro.core.serialization": (
            "graph_from_text",
            "graph_to_text",
            "load_graph",
            "save_graph",
        ),
    },
)
