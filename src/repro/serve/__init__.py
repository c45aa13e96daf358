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

from repro.serve.client import ServerError
from repro.serve.protocol import ProtocolError, QueryAnswer
from repro.serve.server import TopologyServer, run_server
from repro.serve.service import ServeBusy, ServeConfig, TopologyService

__all__ = [
    "ProtocolError",
    "QueryAnswer",
    "ServeBusy",
    "ServeConfig",
    "ServerError",
    "TopologyServer",
    "TopologyService",
    "run_server",
]
