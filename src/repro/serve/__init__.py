"""Topology-as-a-service over the campaign store.

The paper's deliverable — best-known ``(n, r)`` topologies — served as a
query API instead of a directory of artifacts:

- :mod:`repro.serve.service` — :class:`TopologyService`, the engine:
  warm leaderboard-index shards, compose/bounds fallback for uncovered
  shapes, and single-flight background refinement on miss.  Every answer
  is resolved on the event loop; only a refinement solve leaves it;
- :mod:`repro.serve.server` — the TCP front end (``repro serve``);
- :mod:`repro.serve.client` — the blocking client (``repro query``);
- :mod:`repro.serve.protocol` — the JSON-lines wire format.

Telemetry streams through the standard :mod:`repro.obs` registry under
the closed ``serve.*`` instrument names.
"""

from repro._lazy import export_lazily

__all__ = export_lazily(
    __name__,
    {
        "repro.serve.protocol": ("ProtocolError", "QueryAnswer"),
        "repro.serve.service": ("ServeBusy", "ServeConfig", "TopologyService"),
        "repro.serve.client": ("ServerError",),
        "repro.serve.server": ("TopologyServer", "run_server"),
    },
)
