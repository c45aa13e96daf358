"""Blocking client for a running ``repro serve`` instance.

``repro query N R`` is this module: open a TCP connection, write one
JSON request line, read one JSON response line (see
:mod:`repro.serve.protocol`).  Plain sockets on purpose — the client must
work from shell scripts, CI jobs, and other processes that have no event
loop, and the asyncio tests drive it through ``asyncio.to_thread``.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.serve.protocol import MAX_LINE_BYTES, encode_line

__all__ = ["ServerError", "request", "query", "ping", "stats", "shutdown"]


class ServerError(RuntimeError):
    """The server answered ``{"ok": false}`` (or unparseably)."""

    def __init__(self, message: str, *, busy: bool = False) -> None:
        super().__init__(message)
        self.busy = busy
        """True when the server is draining (retry against a restarted one)."""


def request(
    host: str, port: int, payload: dict[str, Any], *, timeout: float = 30.0
) -> dict[str, Any]:
    """One request/response round trip; returns the ``result`` object."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_line(payload))
        with sock.makefile("rb") as fh:
            line = fh.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise ServerError("server closed the connection without answering")
    try:
        response = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServerError(f"unparseable server response: {exc}") from exc
    if not isinstance(response, dict) or "ok" not in response:
        raise ServerError(f"malformed server response: {response!r}")
    if not response["ok"]:
        raise ServerError(
            str(response.get("error", "unknown server error")),
            busy=bool(response.get("busy")),
        )
    result = response.get("result")
    return result if isinstance(result, dict) else {}


def query(
    host: str, port: int, n: int, r: int, *, timeout: float = 30.0
) -> dict[str, Any]:
    """Best known topology for ``(n, r)`` (a ``QueryAnswer`` dict)."""
    return request(host, port, {"op": "query", "n": n, "r": r}, timeout=timeout)


def ping(host: str, port: int, *, timeout: float = 5.0) -> bool:
    return bool(request(host, port, {"op": "ping"}, timeout=timeout).get("pong"))


def stats(host: str, port: int, *, timeout: float = 5.0) -> dict[str, Any]:
    return request(host, port, {"op": "stats"}, timeout=timeout)


def shutdown(host: str, port: int, *, timeout: float = 5.0) -> None:
    request(host, port, {"op": "shutdown"}, timeout=timeout)
