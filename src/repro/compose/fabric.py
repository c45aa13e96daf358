"""End-to-end composed-fabric builds: plan, resolve, glue, predict, bound.

:func:`build_fabric` is the compose subsystem's front door (the ``repro
compose`` CLI and the campaign executor's ``kind: "compose"`` branch both
land here).  One call:

1. plans the block/copies split (:func:`repro.compose.mizuno.plan_composition`),
2. resolves the block through the campaign store memoization
   (:func:`repro.compose.blocks.resolve_block` — cache hit by digest, best
   known ``(n, r)`` result, or a fresh ``solve_orp``),
3. glues the clones (:func:`repro.compose.mizuno.compose_blocks`) and
   validates the fabric,
4. predicts h-ASPL and diameter in closed form from one block measurement
   (:mod:`repro.compose.predict` — bit-identical to kernel measurement),
   optionally confirming by exact APSP with ``measure=True``, and
5. brackets the result between the Theorem-2 / Shimizu–Mori lower bounds
   and the LACIN achievable baseline (:mod:`repro.core.bounds`).

The returned :class:`ComposeResult` serializes to a single JSON document
(``repro.compose.result/v1``); the fabric itself is reproducible from the
memoized block digest plus the copy count, so the store never persists the
(potentially 100k-host) fabric graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.store import CampaignStore
from repro.compose.blocks import resolve_block
from repro.compose.mizuno import ComposePlan, compose_blocks, plan_composition
from repro.compose.predict import (
    predict_h_aspl,
    predict_host_diameter,
    summarize_block,
)
from repro.core.bounds import (
    diameter_lower_bound,
    h_aspl_lower_bound,
    lacin_h_aspl_baseline,
    shimizu_mori_h_aspl_lower_bound,
)
from repro.core.hostswitch import HostSwitchGraph
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock

__all__ = ["COMPOSE_RESULT_FORMAT", "ComposeResult", "build_fabric"]

COMPOSE_RESULT_FORMAT = "repro.compose.result/v1"


def _json_float(v: float) -> float | str:
    return "inf" if math.isinf(v) else v


def _parse_float(v: float | str) -> float:
    return float("inf") if v == "inf" else float(v)


@dataclass(frozen=True)
class ComposeResult:
    """Everything a composed-fabric build produced, JSON-serializable.

    ``graph`` holds the in-memory fabric when the result comes straight
    from :func:`build_fabric`; it is deliberately excluded from
    :meth:`to_dict`, so store round-trips carry ``graph=None`` and the
    block-digest provenance instead.
    """

    n: int
    r: int
    m: int
    copies: int
    requested_n: int
    block_n: int
    block_r: int
    block_m: int
    block_digest: str
    block_source: str
    block_cached: bool
    block_h_aspl: float
    predicted_h_aspl: float
    predicted_diameter: float
    h_aspl_lower_bound: float
    diameter_lower_bound: int
    shimizu_mori_bound: float
    lacin_baseline: float
    build_wall_s: float
    measured_h_aspl: float | None = None
    measured_diameter: float | None = None
    graph: HostSwitchGraph | None = field(default=None, compare=False)

    @property
    def h_aspl(self) -> float:
        """Measured h-ASPL when available, else the (exact) prediction."""
        return (
            self.measured_h_aspl
            if self.measured_h_aspl is not None
            else self.predicted_h_aspl
        )

    @property
    def diameter(self) -> float:
        return (
            self.measured_diameter
            if self.measured_diameter is not None
            else self.predicted_diameter
        )

    @property
    def gap(self) -> float:
        """Relative gap of the achieved h-ASPL over the Theorem-2 bound."""
        return self.h_aspl / self.h_aspl_lower_bound - 1.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (inverse of :meth:`from_dict`)."""
        return {
            "format": COMPOSE_RESULT_FORMAT,
            "kind": "compose",
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "copies": self.copies,
            "requested_n": self.requested_n,
            "block_n": self.block_n,
            "block_r": self.block_r,
            "block_m": self.block_m,
            "block_digest": self.block_digest,
            "block_source": self.block_source,
            "block_cached": self.block_cached,
            "block_h_aspl": self.block_h_aspl,
            "predicted_h_aspl": self.predicted_h_aspl,
            "predicted_diameter": self.predicted_diameter,
            "h_aspl_lower_bound": self.h_aspl_lower_bound,
            "diameter_lower_bound": self.diameter_lower_bound,
            "shimizu_mori_bound": _json_float(self.shimizu_mori_bound),
            "lacin_baseline": _json_float(self.lacin_baseline),
            "build_wall_s": self.build_wall_s,
            "measured_h_aspl": self.measured_h_aspl,
            "measured_diameter": self.measured_diameter,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> ComposeResult:
        if doc.get("format") != COMPOSE_RESULT_FORMAT:
            raise ValueError(
                f"not a {COMPOSE_RESULT_FORMAT} document (format={doc.get('format')!r})"
            )
        measured_h = doc.get("measured_h_aspl")
        measured_d = doc.get("measured_diameter")
        return cls(
            n=int(doc["n"]),
            r=int(doc["r"]),
            m=int(doc["m"]),
            copies=int(doc["copies"]),
            requested_n=int(doc["requested_n"]),
            block_n=int(doc["block_n"]),
            block_r=int(doc["block_r"]),
            block_m=int(doc["block_m"]),
            block_digest=str(doc["block_digest"]),
            block_source=str(doc["block_source"]),
            block_cached=bool(doc["block_cached"]),
            block_h_aspl=float(doc["block_h_aspl"]),
            predicted_h_aspl=float(doc["predicted_h_aspl"]),
            predicted_diameter=float(doc["predicted_diameter"]),
            h_aspl_lower_bound=float(doc["h_aspl_lower_bound"]),
            diameter_lower_bound=int(doc["diameter_lower_bound"]),
            shimizu_mori_bound=_parse_float(doc["shimizu_mori_bound"]),
            lacin_baseline=_parse_float(doc["lacin_baseline"]),
            build_wall_s=float(doc["build_wall_s"]),
            measured_h_aspl=None if measured_h is None else float(measured_h),
            measured_diameter=None if measured_d is None else float(measured_d),
        )

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        block_state = "cached" if self.block_cached else "solved"
        lines = [
            f"compose(n={self.n}, r={self.r}): {self.copies} x "
            f"block(n={self.block_n}, r={self.block_r}, m={self.block_m}) "
            f"-> m={self.m} switches",
            f"  block {block_state} ({self.block_source}, "
            f"digest {self.block_digest[:12]}, h-ASPL {self.block_h_aspl:.4f})",
            f"  predicted h-ASPL = {self.predicted_h_aspl:.4f}  "
            f"(Theorem-2 bound {self.h_aspl_lower_bound:.4f}, gap "
            f"{100 * (self.predicted_h_aspl / self.h_aspl_lower_bound - 1.0):.2f}%)",
            f"  Shimizu-Mori d3 bound = {self.shimizu_mori_bound:.4f}  "
            f"LACIN baseline = {self.lacin_baseline:.4f}",
            f"  predicted diameter = {self.predicted_diameter:.0f}  "
            f"(lower bound {self.diameter_lower_bound})",
        ]
        if self.measured_h_aspl is not None:
            delta = self.measured_h_aspl - self.predicted_h_aspl
            lines.append(
                f"  measured h-ASPL = {self.measured_h_aspl:.4f}  "
                f"(prediction error {delta:+.3e}), "
                f"diameter = {self.measured_diameter:.0f}"
            )
        lines.append(f"  built in {self.build_wall_s:.2f}s")
        return "\n".join(lines)


def build_fabric(
    n: int,
    r: int,
    *,
    copies: int | None = None,
    block_hosts: int | None = None,
    m: int | None = None,
    steps: int = 20_000,
    restarts: int = 1,
    seed: int = 0,
    operation: str = "two-neighbor-swing",
    construction: str = "random",
    initial_temperature: float = 0.05,
    final_temperature: float = 1e-4,
    store: CampaignStore | None = None,
    use_best: bool = True,
    measure: bool = False,
    telemetry: TelemetryRegistry | None = None,
) -> ComposeResult:
    """Build (and optionally exactly measure) a composed fabric for ``(n, r)``.

    ``copies`` / ``block_hosts`` steer the plan (see
    :func:`~repro.compose.mizuno.plan_composition`); ``m`` plus the solver
    keywords configure the block search; ``store`` enables block
    memoization.  ``measure=True`` runs a full kernel APSP on the fabric —
    exact but O(fabric) expensive, so large builds normally trust the
    (provably identical) closed-form prediction instead.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    t0 = obs_clock()
    plan: ComposePlan = plan_composition(
        n, r, copies=copies, block_hosts=block_hosts
    )
    block = resolve_block(
        plan.block_hosts,
        plan.block_radix,
        store=store,
        use_best=use_best,
        telemetry=telemetry,
        m=m,
        steps=steps,
        restarts=restarts,
        seed=seed,
        operation=operation,
        construction=construction,
        initial_temperature=initial_temperature,
        final_temperature=final_temperature,
    )
    fabric = compose_blocks(block.graph, plan.copies, radix=plan.r)
    tel.event(
        "compose.build",
        n=fabric.num_hosts,
        r=plan.r,
        m=fabric.num_switches,
        copies=plan.copies,
        block_n=plan.block_hosts,
        block_digest=block.digest,
        block_source=block.source,
    )
    summary = summarize_block(block.graph)
    predicted = predict_h_aspl(summary, plan.copies)
    predicted_diameter = predict_host_diameter(summary, plan.copies)
    measured_h: float | None = None
    measured_d: float | None = None
    if measure:
        from repro.core.metrics import h_aspl_and_diameter

        measured_h, measured_d = h_aspl_and_diameter(fabric)
    result = ComposeResult(
        n=fabric.num_hosts,
        r=plan.r,
        m=fabric.num_switches,
        copies=plan.copies,
        requested_n=plan.requested_n,
        block_n=block.graph.num_hosts,
        block_r=plan.block_radix,
        block_m=block.graph.num_switches,
        block_digest=block.digest,
        block_source=block.source,
        block_cached=block.cached,
        block_h_aspl=block.h_aspl,
        predicted_h_aspl=predicted,
        predicted_diameter=predicted_diameter,
        h_aspl_lower_bound=h_aspl_lower_bound(fabric.num_hosts, plan.r),
        diameter_lower_bound=diameter_lower_bound(fabric.num_hosts, plan.r),
        shimizu_mori_bound=shimizu_mori_h_aspl_lower_bound(
            fabric.num_hosts, fabric.num_switches, plan.r
        ),
        lacin_baseline=lacin_h_aspl_baseline(fabric.num_hosts, plan.r),
        build_wall_s=obs_clock() - t0,
        measured_h_aspl=measured_h,
        measured_diameter=measured_d,
        graph=fabric,
    )
    tel.event(
        "compose.done",
        n=result.n,
        r=result.r,
        h_aspl=result.h_aspl,
        predicted_h_aspl=result.predicted_h_aspl,
        block_cached=result.block_cached,
        wall_s=result.build_wall_s,
    )
    return result
