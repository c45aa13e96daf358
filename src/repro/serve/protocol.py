"""Wire protocol for ``repro serve``: JSON lines over a TCP stream.

Deliberately minimal — one JSON object per line in each direction, so the
server is scriptable with ``nc`` and the client needs nothing beyond the
standard library (the repo's zero-dependency rule extends to serving).

Requests::

    {"op": "query", "n": 1024, "r": 16}   best known topology for (n, r)
    {"op": "ping"}                        liveness probe
    {"op": "stats"}                       service counters
    {"op": "shutdown"}                    graceful drain + stop

Responses are ``{"ok": true, "result": {...}}`` or
``{"ok": false, "error": "..."}``.  A query result carries ``source`` —
``"index"`` (a stored topology), ``"compose-predicted"`` (a composition
plan over a stored block, h-ASPL predicted analytically), or ``"bounds"``
(nothing stored; theoretical floor only) — plus whatever provenance that
source supports (digest, campaign, graph path, plan shape, bounds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "QueryAnswer",
    "decode_request",
    "encode_line",
]

#: Upper bound on one request line; anything larger is a protocol error
#: (a sane query is tens of bytes — this guards the server's memory).
MAX_LINE_BYTES = 64 * 1024

_OPS = ("query", "ping", "stats", "shutdown")


class ProtocolError(ValueError):
    """A malformed request line (bad JSON, unknown op, missing fields)."""


@dataclass(frozen=True)
class QueryAnswer:
    """One answer to "best known topology for ``(n, r)``"."""

    n: int
    r: int
    source: str
    """``"index"``, ``"compose-predicted"``, or ``"bounds"``."""
    h_aspl: float | None = None
    """Measured (index) or predicted (compose) h-ASPL; ``None`` for a
    pure-bounds answer."""
    h_aspl_lower_bound: float | None = None
    diameter_lower_bound: int | None = None
    lacin_h_aspl_baseline: float | None = None
    digest: str | None = None
    """Provenance digest of the stored point (index answers) or of the
    composition's block (compose answers)."""
    campaign: str | None = None
    graph_path: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)
    """Source-specific extras (compose plan shape, predicted diameter)."""
    refine: str | None = None
    """Background refinement disposition for this query: ``"started"``,
    ``"in-flight"``, ``"disabled"``, or ``None`` (index hit; no miss)."""

    def to_dict(self) -> dict[str, Any]:
        # The fields with a shallow copy of ``detail``, whose values are
        # scalars: ``asdict``'s deep copy cost 18-50 us per answer.
        record = {**vars(self), "detail": dict(self.detail)}
        return {
            k: v
            for k, v in record.items()
            if v is not None
            # Strict-JSON safety: some bounds are legitimately infinite
            # (e.g. the LACIN baseline when no clique fits) but Infinity
            # is not valid JSON — omit rather than emit.
            and not (isinstance(v, float) and not math.isfinite(v))
        }


def encode_line(obj: dict[str, Any]) -> bytes:
    """One protocol line (compact JSON, newline-terminated, UTF-8)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def decode_request(line: bytes) -> dict[str, Any]:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on anything malformed; the server turns
    that into an ``{"ok": false}`` response instead of dropping the
    connection, so one bad client line cannot kill a session.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad request line: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in _OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {_OPS})")
    if op == "query":
        for key in ("n", "r"):
            value = request.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ProtocolError(f"query needs positive integer {key!r}")
    return request
