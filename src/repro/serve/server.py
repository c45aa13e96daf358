"""The asyncio TCP front end for :class:`repro.serve.service.TopologyService`.

``repro serve`` binds a :class:`TopologyServer` to a host/port and speaks
the JSON-lines protocol of :mod:`repro.serve.protocol`.  Each connection
is one asyncio task reading request lines and writing response lines; all
real work happens in the shared service, so a thousand idle connections
cost a thousand paused coroutines and nothing else.

Operational niceties for scripts and CI:

- binding port ``0`` picks an ephemeral port; ``port_file`` publishes the
  bound port atomically-enough for a shell to poll (written after the
  socket is listening, so its existence means "ready");
- a ``shutdown`` request drains gracefully: the server closes every open
  connection (an idle client sees end of file), background refinements
  run to completion, then the loop exits — the same path SIGINT takes
  under the CLI.  A query that reaches the draining service is answered
  ``{"ok": false, "busy": true}``.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any

from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.serve.protocol import ProtocolError, decode_request, encode_line
from repro.serve.service import ServeBusy, ServeConfig, TopologyService

__all__ = ["TopologyServer", "run_server"]


class TopologyServer:
    """One listening socket in front of one :class:`TopologyService`."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self.service = TopologyService(config, telemetry=telemetry)
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        #: Open connections: each handler's writer and its task.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task[None]] = {}

    @property
    def bound_port(self) -> int:
        """The actual port after binding (resolves a requested port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.tel.event(
            "serve.start",
            host=self.host,
            port=self.bound_port,
            shards=self.service.shard_names,
        )

    async def serve_until_shutdown(self, *, port_file: Path | None = None) -> None:
        """Run until a ``shutdown`` request (or task cancellation)."""
        if self._server is None:
            await self.start()
        if port_file is not None:
            port_file.write_text(f"{self.bound_port}\n")
        try:
            await self._shutdown.wait()
        finally:
            await self.aclose()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # An idle client would keep its handler waiting for a line (and,
            # from Python 3.12 on, wait_closed() waiting for the handler).
            # Closing the socket ends each handler's read, so every handler
            # returns here instead of being cancelled when the loop exits.
            for writer in self._connections:
                writer.close()
            await asyncio.gather(*self._connections.values(), return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    # ------------------------------------------------------ connections --

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[writer] = task
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                response = await self._respond(line)
                writer.write(encode_line(response))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            del self._connections[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(self, line: bytes) -> dict[str, Any]:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return {"ok": False, "error": str(exc)}
        op = request["op"]
        if op == "ping":
            return {"ok": True, "result": {"pong": True}}
        if op == "stats":
            return {"ok": True, "result": self.service.stats()}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "result": {"draining": True}}
        try:
            answer = await self.service.query(request["n"], request["r"])
        except ServeBusy as exc:
            return {"ok": False, "error": str(exc), "busy": True}
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "result": answer.to_dict()}


async def run_server(
    config: ServeConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Path | None = None,
    telemetry: TelemetryRegistry | None = None,
) -> None:
    """Start a server and serve until a ``shutdown`` request arrives.

    The entry point behind ``repro serve``; cancellation (SIGINT under
    ``asyncio.run``) takes the same graceful-drain path as ``shutdown``.
    """
    server = TopologyServer(config, host=host, port=port, telemetry=telemetry)
    await server.start()
    try:
        await server.serve_until_shutdown(port_file=port_file)
    except asyncio.CancelledError:
        await server.aclose()
        raise
