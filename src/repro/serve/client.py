"""Blocking client for a running ``repro serve`` instance.

``repro query N R`` is this module: write one JSON request line, read one
JSON response line (see :mod:`repro.serve.protocol`).  Plain sockets on
purpose — the client must work from shell scripts, CI jobs, and other
processes that have no event loop, and the asyncio tests drive it through
``asyncio.to_thread``.

**The kept connection.**  The client keeps its connection open between
calls and sends the next request to the same ``(host, port)`` over it, so
a caller that asks many questions (a load generator, a scheduler choosing
fabrics, a script) pays the TCP set-up once; the server already answers
any number of lines per connection.  The connection sits in one
process-wide slot that a call takes for the length of its exchange, so no
two threads ever use one socket: a call that finds the slot empty (say,
another thread holds the connection) opens its own, and the slot keeps
the connection of the call that ended last, closing the one it displaces.
A call to another address replaces the kept connection.  It is closed
after ``shutdown``, on any exception, and on a response that does not end
in a newline within ``MAX_LINE_BYTES``, so a stream out of step is never
reused.  A forked child drops the parent's connection (closing only its
own descriptor) and opens its own; interpreter exit closes it.

**Retry rule.**  When a *reused* connection fails before the response
starts — sending raises, or the read sees end of file or a reset, broken
or aborted connection — its server is gone (restarted, or it closed the
idle connection while draining), and the request is sent once more on a
fresh connection.  Every op is safe to repeat: a repeated miss finds its
refinement already in flight.  A failure on a fresh connection raises as
it always did, and a timeout is never retried: a slow server is not a
gone one.
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import threading
from typing import Any

from repro.serve.protocol import MAX_LINE_BYTES, encode_line

__all__ = ["ServerError", "request", "query", "ping", "stats", "shutdown"]

#: What a reused connection whose server went away raises.
_STALE = (BrokenPipeError, ConnectionAbortedError, ConnectionResetError)


class ServerError(RuntimeError):
    """The server answered ``{"ok": false}`` (or unparseably)."""

    def __init__(self, message: str, *, busy: bool = False) -> None:
        super().__init__(message)
        self.busy = busy
        """True when the server is draining (retry against a restarted one)."""


class _Connection:
    """One open socket to one server address, and its buffered reader."""

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.address = address
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes, timeout: float) -> bytes:
        """Send one request line; the response line (empty at end of file)."""
        self.sock.settimeout(timeout)
        self.sock.sendall(line)
        return self.reader.readline(MAX_LINE_BYTES + 1)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


_kept: _Connection | None = None
_kept_lock = threading.Lock()


def _swap(conn: _Connection | None) -> _Connection | None:
    """Put ``conn`` in the slot; return what the slot held."""
    global _kept
    with _kept_lock:
        old, _kept = _kept, conn
    return old


@atexit.register
def _close_kept() -> None:
    old = _swap(None)
    if old is not None:
        old.close()


def _forget_after_fork() -> None:
    # The lock may have been held by a thread the child does not have.
    global _kept_lock
    _kept_lock = threading.Lock()
    _close_kept()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)


def request(
    host: str, port: int, payload: dict[str, Any], *, timeout: float = 30.0
) -> dict[str, Any]:
    """One request/response round trip; returns the ``result`` object.

    Goes over the kept connection when it leads to ``(host, port)``, and
    once more over a fresh one when that connection lost its server (see
    the module docstring); ``timeout`` applies to every socket operation.
    """
    address = (host, port)
    line = encode_line(payload)
    conn = _swap(None)
    if conn is not None and conn.address != address:
        conn.close()
        conn = None
    try:
        response = b""
        if conn is not None:
            try:
                response = conn.exchange(line, timeout)
            except _STALE:
                pass
            if not response:
                conn.close()
                conn = None
        if conn is None:
            conn = _Connection(address, timeout)
            response = conn.exchange(line, timeout)
        result = _result(response)
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if response.endswith(b"\n") and payload.get("op") != "shutdown":
        conn = _swap(conn)  # what another thread kept meanwhile, if anything
    if conn is not None:
        conn.close()
    return result


def _result(line: bytes) -> dict[str, Any]:
    """The ``result`` object of one response line; raises ServerError."""
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
