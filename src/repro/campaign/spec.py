"""Declarative campaign sweep specs and canonical point digests.

A campaign spec is a plain JSON/dict document describing a *grid* of ORP
points plus executor policy:

.. code-block:: json

    {
      "format": "repro.campaign.spec/v1",
      "name": "fig5-n256",
      "grid": {"n": [256], "r": [12, 16], "seed": [0, 1, 2]},
      "defaults": {"steps": 5000, "restarts": 2},
      "executor": {"jobs": 2, "checkpoint_every": 1000, "timeout_s": 600,
                   "retries": 1, "backoff_s": 1.0}
    }

``grid`` axes are cartesian-expanded (axes may be scalars or lists);
``defaults`` fills the remaining solver parameters of every point.  Each
expanded point is *normalized* — all solver-relevant fields made explicit
with the same defaults :func:`repro.core.solver.solve_orp` and
:class:`repro.core.annealing.AnnealingSchedule` use — and identified by the
SHA-256 digest of its canonical JSON form.  The digest is the point's key
in the result store: same parameters, same key, regardless of dict
ordering, spec file formatting, or which campaign asked for it.

Points come in three kinds.  The default, ``"orp"``, anneals an ORP
solution as above; its normalized form carries **no** ``kind`` key, so
every digest ever computed stays valid.  ``"kind": "resilience"`` points
instead build a seeded graph and run
:func:`repro.analysis.resilience.failure_sweep` over it
(``mode``/``failures``/``trials``/``seed`` fields).  ``"kind": "compose"``
points build a large fabric through
:func:`repro.compose.fabric.build_fabric` (``copies``/``block_hosts``
shape fields plus the block's solver fields); their block sub-solves land
in the same store as plain ORP points, so compose campaigns and direct
sweeps share one block cache.  A top-level ``"kind"`` in the spec applies
to every point.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CAMPAIGN_SPEC_FORMAT",
    "COMPOSE_POINT_FIELDS",
    "POINT_FIELDS",
    "POINT_KINDS",
    "RESILIENCE_POINT_FIELDS",
    "CampaignSpec",
    "ExecutorConfig",
    "SpecError",
    "canonical_json",
    "expand_grid",
    "load_spec",
    "normalize_point",
    "point_digest",
]

CAMPAIGN_SPEC_FORMAT = "repro.campaign.spec/v1"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Solver-relevant point fields, their types, and normalization defaults.
#: The defaults mirror ``solve_orp`` / ``AnnealingSchedule`` exactly, so a
#: spec that omits a field digests identically to one spelling the default
#: out — and to what the solver will actually run.
POINT_FIELDS: dict[str, tuple[type | tuple[type, ...], Any]] = {
    "n": (int, None),  # required
    "r": (int, None),  # required
    "m": ((int, type(None)), None),
    "steps": (int, 20_000),
    "restarts": (int, 1),
    "seed": (int, 0),
    "operation": (str, "two-neighbor-swing"),
    "construction": (str, "random"),
    "initial_temperature": ((int, float), 0.05),
    "final_temperature": ((int, float), 1e-4),
}

_REQUIRED = ("n", "r")
_OPERATIONS = ("swap", "swing", "two-neighbor-swing")
_CONSTRUCTIONS = ("random", "regular")

#: Recognized point kinds.  ``orp`` is the historical default and digests
#: without a ``kind`` key for backward compatibility.
POINT_KINDS = ("orp", "resilience", "compose")

#: Fields of a ``kind="resilience"`` point: a seeded graph plus the
#: :func:`repro.analysis.resilience.failure_sweep` parameters.  Defaults
#: mirror ``failure_sweep`` exactly, for the same digest-stability reason
#: as :data:`POINT_FIELDS`.
RESILIENCE_POINT_FIELDS: dict[str, tuple[type | tuple[type, ...], Any]] = {
    "kind": (str, "resilience"),
    "n": (int, None),  # required
    "r": (int, None),  # required
    "m": ((int, type(None)), None),
    "construction": (str, "random"),
    "graph_seed": (int, 0),
    "mode": (str, "link"),
    "failures": (int, 1),
    "trials": (int, 50),
    "seed": (int, 0),
}

_MODES = ("link", "switch")

#: Fields of a ``kind="compose"`` point: the fabric target ``(n, r)``, the
#: plan shape (``copies``/``block_hosts``), and the block's solver fields.
#: Defaults mirror :func:`repro.compose.fabric.build_fabric` exactly, for
#: the same digest-stability reason as :data:`POINT_FIELDS`.
COMPOSE_POINT_FIELDS: dict[str, tuple[type | tuple[type, ...], Any]] = {
    "kind": (str, "compose"),
    "n": (int, None),  # required
    "r": (int, None),  # required
    "copies": ((int, type(None)), None),
    "block_hosts": ((int, type(None)), None),
    "m": ((int, type(None)), None),
    "steps": (int, 20_000),
    "restarts": (int, 1),
    "seed": (int, 0),
    "operation": (str, "two-neighbor-swing"),
    "construction": (str, "random"),
    "initial_temperature": ((int, float), 0.05),
    "final_temperature": ((int, float), 1e-4),
    "measure": (bool, False),
}

_EXECUTOR_FIELDS: dict[str, tuple[type | tuple[type, ...], Any]] = {
    "jobs": (int, 1),
    "checkpoint_every": (int, 1000),
    "timeout_s": ((int, float, type(None)), None),
    "retries": (int, 1),
    "backoff_s": ((int, float), 1.0),
}


class SpecError(ValueError):
    """A campaign spec failed schema validation."""


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy for a campaign (not part of point digests)."""

    jobs: int = 1
    checkpoint_every: int = 1000
    timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise SpecError(f"executor.jobs must be >= 1, got {self.jobs}")
        if self.checkpoint_every < 1:
            raise SpecError(
                f"executor.checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError(f"executor.timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise SpecError(f"executor.retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise SpecError(f"executor.backoff_s must be >= 0, got {self.backoff_s}")


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: name, normalized points, executor policy."""

    name: str
    points: tuple[dict[str, Any], ...]
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    raw: dict[str, Any] = field(default_factory=dict)
    """The original spec document (persisted verbatim by the store)."""

    def digests(self) -> list[str]:
        """Point digests in spec order."""
        return [point_digest(p) for p in self.points]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def normalize_point(point: dict[str, Any]) -> dict[str, Any]:
    """Validate one point and make every solver-relevant field explicit.

    Dispatches on the point's ``kind`` (default ``"orp"``).  ORP points
    return a new dict with exactly the :data:`POINT_FIELDS` keys — no
    ``kind`` key, so pre-kind digests are unchanged; resilience points keep
    ``kind="resilience"`` plus the :data:`RESILIENCE_POINT_FIELDS` keys,
    and compose points keep ``kind="compose"`` plus the
    :data:`COMPOSE_POINT_FIELDS` keys.  Raises :class:`SpecError` on
    unknown keys, missing required keys, wrong types, or out-of-range
    values.
    """
    kind = point.get("kind", "orp")
    if kind not in POINT_KINDS:
        raise SpecError(f"point kind must be one of {POINT_KINDS}, got {kind!r}")
    if kind == "resilience":
        return _normalize_resilience_point(point)
    if kind == "compose":
        return _normalize_compose_point(point)
    point = {key: value for key, value in point.items() if key != "kind"}
    unknown = set(point) - set(POINT_FIELDS)
    if unknown:
        raise SpecError(
            f"unknown point field(s) {sorted(unknown)}; "
            f"allowed: {sorted(POINT_FIELDS)}"
        )
    out: dict[str, Any] = {}
    for key, (types, default) in POINT_FIELDS.items():
        if key in point:
            value = point[key]
        elif key in _REQUIRED:
            raise SpecError(f"point is missing required field {key!r}: {point!r}")
        else:
            value = default
        if isinstance(value, bool) or not isinstance(value, types):
            raise SpecError(
                f"point field {key!r} must be {types}, got {value!r}"
            )
        if key in ("initial_temperature", "final_temperature"):
            value = float(value)
        out[key] = value
    for key in ("n", "r", "steps", "restarts"):
        if out[key] < 1:
            raise SpecError(f"point field {key!r} must be >= 1, got {out[key]}")
    if out["m"] is not None and out["m"] < 1:
        raise SpecError(f"point field 'm' must be >= 1, got {out['m']}")
    if out["operation"] not in _OPERATIONS:
        raise SpecError(
            f"point operation must be one of {_OPERATIONS}, got {out['operation']!r}"
        )
    if out["construction"] not in _CONSTRUCTIONS:
        raise SpecError(
            f"point construction must be one of {_CONSTRUCTIONS}, "
            f"got {out['construction']!r}"
        )
    if not 0 < out["final_temperature"] <= out["initial_temperature"]:
        raise SpecError(
            "need 0 < final_temperature <= initial_temperature, got "
            f"{out['final_temperature']}, {out['initial_temperature']}"
        )
    return out


def _normalize_resilience_point(point: dict[str, Any]) -> dict[str, Any]:
    """Normalize a ``kind="resilience"`` point (see :func:`normalize_point`)."""
    unknown = set(point) - set(RESILIENCE_POINT_FIELDS)
    if unknown:
        raise SpecError(
            f"unknown resilience point field(s) {sorted(unknown)}; "
            f"allowed: {sorted(RESILIENCE_POINT_FIELDS)}"
        )
    out: dict[str, Any] = {}
    for key, (types, default) in RESILIENCE_POINT_FIELDS.items():
        if key in point:
            value = point[key]
        elif key in _REQUIRED:
            raise SpecError(f"point is missing required field {key!r}: {point!r}")
        else:
            value = default
        if isinstance(value, bool) or not isinstance(value, types):
            raise SpecError(f"point field {key!r} must be {types}, got {value!r}")
        out[key] = value
    for key in ("r", "failures", "trials"):
        if out[key] < 1:
            raise SpecError(f"point field {key!r} must be >= 1, got {out[key]}")
    if out["n"] < 2:
        raise SpecError(f"resilience needs n >= 2 hosts, got {out['n']}")
    if out["m"] is not None and out["m"] < 1:
        raise SpecError(f"point field 'm' must be >= 1, got {out['m']}")
    if out["construction"] not in _CONSTRUCTIONS:
        raise SpecError(
            f"point construction must be one of {_CONSTRUCTIONS}, "
            f"got {out['construction']!r}"
        )
    if out["mode"] not in _MODES:
        raise SpecError(f"point mode must be one of {_MODES}, got {out['mode']!r}")
    return out


def _normalize_compose_point(point: dict[str, Any]) -> dict[str, Any]:
    """Normalize a ``kind="compose"`` point (see :func:`normalize_point`)."""
    unknown = set(point) - set(COMPOSE_POINT_FIELDS)
    if unknown:
        raise SpecError(
            f"unknown compose point field(s) {sorted(unknown)}; "
            f"allowed: {sorted(COMPOSE_POINT_FIELDS)}"
        )
    out: dict[str, Any] = {}
    for key, (types, default) in COMPOSE_POINT_FIELDS.items():
        if key in point:
            value = point[key]
        elif key in _REQUIRED:
            raise SpecError(f"point is missing required field {key!r}: {point!r}")
        else:
            value = default
        # ``measure`` is the one genuinely boolean point field; everywhere
        # else a bool is a smuggled int and rejected like the other kinds.
        if types is bool:
            ok = isinstance(value, bool)
        else:
            ok = not isinstance(value, bool) and isinstance(value, types)
        if not ok:
            raise SpecError(f"point field {key!r} must be {types}, got {value!r}")
        if key in ("initial_temperature", "final_temperature"):
            value = float(value)
        out[key] = value
    for key in ("steps", "restarts"):
        if out[key] < 1:
            raise SpecError(f"point field {key!r} must be >= 1, got {out[key]}")
    if out["n"] < 2:
        raise SpecError(f"composition needs n >= 2 hosts, got {out['n']}")
    if out["r"] < 3:
        raise SpecError(f"composition needs radix >= 3, got {out['r']}")
    for key in ("copies", "block_hosts", "m"):
        if out[key] is not None and out[key] < 1:
            raise SpecError(f"point field {key!r} must be >= 1, got {out[key]}")
    if out["block_hosts"] is not None and out["block_hosts"] < 2:
        raise SpecError(
            f"point field 'block_hosts' must be >= 2, got {out['block_hosts']}"
        )
    if out["operation"] not in _OPERATIONS:
        raise SpecError(
            f"point operation must be one of {_OPERATIONS}, got {out['operation']!r}"
        )
    if out["construction"] not in _CONSTRUCTIONS:
        raise SpecError(
            f"point construction must be one of {_CONSTRUCTIONS}, "
            f"got {out['construction']!r}"
        )
    if not 0 < out["final_temperature"] <= out["initial_temperature"]:
        raise SpecError(
            "need 0 < final_temperature <= initial_temperature, got "
            f"{out['final_temperature']}, {out['initial_temperature']}"
        )
    return out


def point_digest(point: dict[str, Any]) -> str:
    """Content address of a point: SHA-256 of its canonical JSON form."""
    normalized = normalize_point(point)
    return hashlib.sha256(canonical_json(normalized).encode()).hexdigest()


def expand_grid(
    grid: dict[str, Any], defaults: dict[str, Any] | None = None
) -> list[dict[str, Any]]:
    """Cartesian-expand ``grid`` over ``defaults`` into normalized points.

    Axes iterate in sorted key order with values in listed order, so the
    expansion order is deterministic.  Scalar axis values mean a
    single-value axis.  Duplicate points (identical digests) are rejected.
    """
    if not isinstance(grid, dict) or not grid:
        raise SpecError(f"grid must be a non-empty dict, got {grid!r}")
    defaults = dict(defaults or {})
    overlap = set(grid) & set(defaults)
    if overlap:
        raise SpecError(f"field(s) {sorted(overlap)} appear in both grid and defaults")
    axes: list[tuple[str, list[Any]]] = []
    for key in sorted(grid):
        values = grid[key]
        if not isinstance(values, list):
            values = [values]
        if not values:
            raise SpecError(f"grid axis {key!r} is empty")
        axes.append((key, values))
    points = []
    seen: set[str] = set()
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(defaults)
        point.update({key: value for (key, _), value in zip(axes, combo)})
        normalized = normalize_point(point)
        digest = point_digest(normalized)
        if digest in seen:
            raise SpecError(f"grid expands to duplicate point {normalized!r}")
        seen.add(digest)
        points.append(normalized)
    return points


def load_spec(document: dict[str, Any]) -> CampaignSpec:
    """Validate a spec document (parsed JSON) into a :class:`CampaignSpec`."""
    if not isinstance(document, dict):
        raise SpecError(f"spec must be a JSON object, got {type(document).__name__}")
    fmt = document.get("format", CAMPAIGN_SPEC_FORMAT)
    if fmt != CAMPAIGN_SPEC_FORMAT:
        raise SpecError(
            f"unsupported spec format {fmt!r} (expected {CAMPAIGN_SPEC_FORMAT})"
        )
    allowed = {"format", "name", "kind", "grid", "defaults", "executor"}
    unknown = set(document) - allowed
    if unknown:
        raise SpecError(
            f"unknown spec field(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    name = document.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SpecError(
            f"spec needs a 'name' matching {_NAME_RE.pattern!r}, got {name!r}"
        )
    defaults = dict(document.get("defaults") or {})
    kind = document.get("kind")
    if kind is not None:
        if kind not in POINT_KINDS:
            raise SpecError(f"spec kind must be one of {POINT_KINDS}, got {kind!r}")
        if "kind" in defaults or "kind" in (document.get("grid") or {}):
            raise SpecError(
                "give 'kind' either at the spec top level or in grid/defaults, not both"
            )
        defaults["kind"] = kind
    points = expand_grid(document.get("grid", {}), defaults)

    executor_doc = document.get("executor", {})
    if not isinstance(executor_doc, dict):
        raise SpecError(f"executor must be a dict, got {executor_doc!r}")
    unknown = set(executor_doc) - set(_EXECUTOR_FIELDS)
    if unknown:
        raise SpecError(
            f"unknown executor field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_EXECUTOR_FIELDS)}"
        )
    executor_kwargs: dict[str, Any] = {}
    for key, (types, _default) in _EXECUTOR_FIELDS.items():
        if key in executor_doc:
            value = executor_doc[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise SpecError(f"executor field {key!r} must be {types}, got {value!r}")
            executor_kwargs[key] = value
    executor = ExecutorConfig(**executor_kwargs)

    return CampaignSpec(
        name=name,
        points=tuple(points),
        executor=executor,
        raw=dict(document),
    )
