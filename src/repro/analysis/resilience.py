"""Link/switch failure analysis (extension).

Random-like low-diameter topologies are often praised for graceful
degradation: losing one cable barely moves the ASPL because many short
alternative paths exist, while structured networks can lose whole
dimensions.  This module quantifies that for host-switch graphs:

- :func:`edge_failure_impact` — h-ASPL degradation and disconnection
  probability over random single switch-switch link failures.
- :func:`switch_failure_impact` — the same for whole-switch failures
  (its hosts go down with it; the metric covers the survivors).
- :func:`failure_sweep` — k-simultaneous failures per trial with degraded
  (reachability-aware) metrics and percentile reporting; the engine behind
  ``repro resilience`` and the campaign ``resilience`` spec kind.

All sweeps share one :class:`repro.core.incremental.DynamicDistanceMatrix`
across trials: each trial removes its target edges, measures from the
repaired matrix, and re-adds them in a ``finally`` block (the insertion
min-rule restores the exact pre-trial matrix, so trials are independent and
the input graph is never touched).  That replaces the historical
APSP-per-trial loop — per-trial cost drops from O(m·E) to the handful of
BFS rows the failure actually perturbs — while producing bit-identical
h-ASPL values (all terms are integers, exactly representable in float64).

Semantics of the aggregate fields:

- ``mean_h_aspl`` averages **connected trials only** (documented, and kept
  for continuity with earlier revisions); an all-disconnected sweep yields
  ``inf``.
- ``worst_h_aspl`` is ``inf`` as soon as *any* trial disconnected — a sweep
  where 9/10 trials partition the fabric must not report a benign finite
  worst case.  The finite maximum over connected trials is available
  separately as ``worst_connected_h_aspl``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import DynamicDistanceMatrix
from repro.core.metrics import (
    DegradedMetrics,
    degraded_metrics_from_distances,
    h_aspl,
    h_aspl_from_distances,
)
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.utils.rng import as_generator

__all__ = [
    "FailureImpact",
    "ResilienceSweepResult",
    "RESILIENCE_RESULT_FORMAT",
    "edge_failure_impact",
    "switch_failure_impact",
    "failure_sweep",
]

RESILIENCE_RESULT_FORMAT = "repro.resilience.result/v1"


@dataclass(frozen=True)
class FailureImpact:
    """Aggregated results of a failure-injection experiment."""

    baseline_h_aspl: float
    trials: int
    disconnected: int
    #: Mean over *connected* trials only (``inf`` if every trial
    #: disconnected); see the module docstring.
    mean_h_aspl: float
    #: ``inf`` when any trial disconnected, else the finite maximum.
    worst_h_aspl: float
    #: Finite maximum over connected trials (``inf`` only when there were
    #: none) — the old pre-fix meaning of ``worst_h_aspl``.
    worst_connected_h_aspl: float

    @property
    def disconnection_probability(self) -> float:
        return self.disconnected / self.trials if self.trials else 0.0

    @property
    def mean_degradation(self) -> float:
        """Relative mean h-ASPL increase over the connected trials."""
        if self.baseline_h_aspl <= 0.0:
            return 0.0
        return self.mean_h_aspl / self.baseline_h_aspl - 1.0


def _impact(baseline: float, trials: int, disconnected: int, values: list[float]) -> FailureImpact:
    finite_worst = float(np.max(values)) if values else float("inf")
    return FailureImpact(
        baseline_h_aspl=baseline,
        trials=trials,
        disconnected=disconnected,
        mean_h_aspl=float(np.mean(values)) if values else float("inf"),
        worst_h_aspl=float("inf") if disconnected else finite_worst,
        worst_connected_h_aspl=finite_worst,
    )


def edge_failure_impact(
    graph: HostSwitchGraph,
    trials: int = 20,
    seed: int | np.random.Generator | None = None,
) -> FailureImpact:
    """Remove one random switch-switch link per trial and re-measure.

    The input graph is never modified: trials run against a shared
    incrementally repaired distance matrix, restored in a ``finally`` block
    even if a trial's measurement raises.  Disconnected outcomes are
    counted separately and excluded from the connected mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_generator(seed)
    edges = sorted(graph.switch_edges())
    if not edges:
        raise ValueError("graph has no switch-switch links to fail")
    baseline = h_aspl(graph)
    ddm = DynamicDistanceMatrix(graph)
    counts = graph.host_counts().astype(np.float64)
    bearing = np.flatnonzero(counts > 0)
    kb = counts[bearing]
    n = graph.num_hosts
    values: list[float] = []
    disconnected = 0
    for _ in range(trials):
        a, b = edges[int(rng.integers(0, len(edges)))]
        ddm.remove_edge(a, b)
        try:
            sub = ddm.dist[np.ix_(bearing, bearing)]
            value = h_aspl_from_distances(sub, kb, n)
            if math.isinf(value):
                disconnected += 1
            else:
                values.append(value)
        finally:
            ddm.add_edge(a, b)
    return _impact(baseline, trials, disconnected, values)


def switch_failure_impact(
    graph: HostSwitchGraph,
    trials: int = 10,
    seed: int | np.random.Generator | None = None,
) -> FailureImpact:
    """Fail one random switch per trial (with its hosts) and re-measure.

    The survivors' h-ASPL is measured with the victim's rows masked out of
    the shared distance matrix; trials whose survivors cannot all reach
    each other count as disconnected, as do degenerate trials leaving
    fewer than two hosts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_generator(seed)
    baseline = h_aspl(graph)
    ddm = DynamicDistanceMatrix(graph)
    counts = graph.host_counts().astype(np.float64)
    n = graph.num_hosts
    values: list[float] = []
    disconnected = 0
    for _ in range(trials):
        victim = int(rng.integers(0, graph.num_switches))
        removed = ddm.remove_switch(victim)
        try:
            survivors_n = int(n - counts[victim])
            if graph.num_switches <= 1 or survivors_n < 2:
                disconnected += 1
                continue
            k = counts.copy()
            k[victim] = 0.0
            bearing = np.flatnonzero(k > 0)
            sub = ddm.dist[np.ix_(bearing, bearing)]
            value = h_aspl_from_distances(sub, k[bearing], survivors_n)
            if math.isinf(value):
                disconnected += 1
            else:
                values.append(value)
        finally:
            for a, b in removed:
                ddm.add_edge(a, b)
    return _impact(baseline, trials, disconnected, values)


@dataclass(frozen=True)
class ResilienceSweepResult:
    """Per-trial degraded metrics of a k-simultaneous-failure sweep."""

    mode: str  # "link" | "switch"
    failures: int  # simultaneous failures per trial
    trials: int
    baseline_h_aspl: float
    #: Per-trial reachable-pair h-ASPL (``inf`` only with zero reachable pairs).
    connected_h_aspl: tuple[float, ...]
    #: Per-trial fraction of host pairs still reachable (1.0 = no partition).
    reachable_pair_fraction: tuple[float, ...]
    #: Per-trial number of host-carrying components (0 for degenerate trials).
    num_components: tuple[int, ...]

    @property
    def disconnected(self) -> int:
        """Trials that partitioned the fabric (reachable fraction < 1)."""
        return sum(1 for f in self.reachable_pair_fraction if f < 1.0)

    @property
    def disconnection_probability(self) -> float:
        return self.disconnected / self.trials if self.trials else 0.0

    @property
    def h_aspl(self) -> float:
        """Mean reachable-pair h-ASPL over all trials (campaign summary value)."""
        finite = [v for v in self.connected_h_aspl if not math.isinf(v)]
        return float(np.mean(finite)) if finite else float("inf")

    @property
    def mean_reachable_fraction(self) -> float:
        return float(np.mean(self.reachable_pair_fraction)) if self.trials else 0.0

    @property
    def min_reachable_fraction(self) -> float:
        return float(np.min(self.reachable_pair_fraction)) if self.trials else 0.0

    def connected_h_aspl_percentile(self, q: float) -> float:
        """Percentile of the per-trial reachable-pair h-ASPL (finite trials)."""
        finite = [v for v in self.connected_h_aspl if not math.isinf(v)]
        return float(np.percentile(finite, q)) if finite else float("inf")

    def percentiles(self) -> dict[str, float]:
        """The standard report row: p50/p90/p99/max of the degraded h-ASPL."""
        return {
            "p50": self.connected_h_aspl_percentile(50),
            "p90": self.connected_h_aspl_percentile(90),
            "p99": self.connected_h_aspl_percentile(99),
            "max": max(self.connected_h_aspl, default=float("inf")),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (inverse of :meth:`from_dict`)."""
        return {
            "format": RESILIENCE_RESULT_FORMAT,
            "kind": "resilience_sweep",
            "mode": self.mode,
            "failures": self.failures,
            "trials": self.trials,
            "baseline_h_aspl": self.baseline_h_aspl,
            "connected_h_aspl": [_json_float(v) for v in self.connected_h_aspl],
            "reachable_pair_fraction": list(self.reachable_pair_fraction),
            "num_components": list(self.num_components),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> ResilienceSweepResult:
        if doc.get("format") != RESILIENCE_RESULT_FORMAT:
            raise ValueError(
                f"not a {RESILIENCE_RESULT_FORMAT} document (format={doc.get('format')!r})"
            )
        return cls(
            mode=str(doc["mode"]),
            failures=int(doc["failures"]),
            trials=int(doc["trials"]),
            baseline_h_aspl=float(doc["baseline_h_aspl"]),
            connected_h_aspl=tuple(_parse_float(v) for v in doc["connected_h_aspl"]),
            reachable_pair_fraction=tuple(float(v) for v in doc["reachable_pair_fraction"]),
            num_components=tuple(int(v) for v in doc["num_components"]),
        )


def _json_float(v: float) -> float | str:
    return "inf" if math.isinf(v) else v


def _parse_float(v: float | str) -> float:
    return float("inf") if v == "inf" else float(v)


def failure_sweep(
    graph: HostSwitchGraph,
    *,
    mode: str = "link",
    failures: int = 1,
    trials: int = 50,
    seed: int | np.random.Generator | None = None,
    telemetry: TelemetryRegistry | None = None,
    on_trial: Callable[[int], None] | None = None,
) -> ResilienceSweepResult:
    """``failures``-simultaneous random failures per trial, degraded metrics.

    Each trial samples ``failures`` distinct links (``mode="link"``) or
    switches (``mode="switch"``, hosts go down with their switch) and
    measures the surviving fabric with
    :func:`repro.core.metrics.degraded_metrics_from_distances` — so a trial
    that partitions the fabric yields finite reachable-pair numbers rather
    than a raise or a bare ``inf``.  Trials mutate a shared incrementally
    repaired distance matrix and restore it in ``finally``.

    ``on_trial(i)`` is called after trial ``i`` completes; the campaign
    executor uses it as a checkpoint boundary (interrupt/timeout checks).
    ``telemetry`` receives a ``faults.injected`` count per injected failure
    and one ``resilience.sweep`` summary event.
    """
    if mode not in ("link", "switch"):
        raise ValueError(f"mode must be 'link' or 'switch', got {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    targets: list[Any]
    if mode == "link":
        targets = sorted(graph.switch_edges())
        if not targets:
            raise ValueError("graph has no switch-switch links to fail")
    else:
        targets = list(range(graph.num_switches))
    if not 1 <= failures <= len(targets):
        raise ValueError(
            f"failures must be in [1, {len(targets)}] distinct {mode} targets, "
            f"got {failures}"
        )
    rng = as_generator(seed)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    baseline = h_aspl(graph)
    ddm = DynamicDistanceMatrix(graph, telemetry=telemetry)
    counts = graph.host_counts().astype(np.float64)
    n = graph.num_hosts
    aspls: list[float] = []
    fractions: list[float] = []
    components: list[int] = []
    with tel.span("resilience.sweep", mode=mode, failures=failures, trials=trials):
        for trial in range(trials):
            picked = [targets[int(i)] for i in rng.choice(len(targets), size=failures, replace=False)]
            removed: list[tuple[int, int]] = []
            try:
                if mode == "link":
                    for a, b in picked:
                        ddm.remove_edge(a, b)
                        removed.append((a, b))
                    k = counts
                    trial_n = n
                else:
                    for s in picked:
                        removed.extend(ddm.remove_switch(s))
                    k = counts.copy()
                    k[picked] = 0.0
                    trial_n = int(k.sum())
                if tel.enabled:
                    tel.counter("faults.injected").inc(failures)
                metrics = _measure_trial(ddm, k, trial_n)
                aspls.append(metrics.connected_h_aspl)
                fractions.append(metrics.reachable_pair_fraction)
                components.append(metrics.num_components)
            finally:
                for a, b in removed:
                    ddm.add_edge(a, b)
            if on_trial is not None:
                on_trial(trial)
    result = ResilienceSweepResult(
        mode=mode,
        failures=failures,
        trials=trials,
        baseline_h_aspl=baseline,
        connected_h_aspl=tuple(aspls),
        reachable_pair_fraction=tuple(fractions),
        num_components=tuple(components),
    )
    if tel.enabled:
        tel.event(
            "resilience.sweep.done",
            mode=mode,
            failures=failures,
            trials=trials,
            disconnected=result.disconnected,
            mean_reachable_fraction=result.mean_reachable_fraction,
            p50_connected_h_aspl=_json_float(result.connected_h_aspl_percentile(50)),
        )
    return result


def _measure_trial(ddm: DynamicDistanceMatrix, k: np.ndarray, n: int) -> DegradedMetrics:
    """Degraded metrics of the current (failed) state of ``ddm``.

    Degenerate trials with fewer than two surviving hosts report zero
    reachability instead of raising.
    """
    if n < 2:
        return DegradedMetrics(
            connected_h_aspl=float("inf"),
            reachable_pair_fraction=0.0,
            num_components=0,
            component_hosts=(),
            num_hosts=n,
        )
    bearing = np.flatnonzero(k > 0)
    sub = ddm.dist[np.ix_(bearing, bearing)]
    return degraded_metrics_from_distances(sub, k[bearing], n)
