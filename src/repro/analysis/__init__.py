"""Analysis and reporting helpers: host distributions, ASCII tables, series."""

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.analysis.resilience": (
            "FailureImpact",
            "ResilienceSweepResult",
            "edge_failure_impact",
            "failure_sweep",
            "switch_failure_impact",
        ),
        "repro.analysis.distributions": (
            "host_distribution",
            "host_distribution_summary",
            "unused_switch_fraction",
        ),
        "repro.analysis.paths": (
            "DistanceProfile",
            "distance_histogram",
            "distance_profile",
            "link_load_summary",
        ),
        "repro.analysis.report": ("format_table", "format_series"),
    },
)
