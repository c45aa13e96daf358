"""TCP server + blocking client end-to-end, and the wire protocol."""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro.campaign.store import CampaignStore
from repro.compose.blocks import resolve_block
from repro.serve import ServeConfig, TopologyServer
from repro.serve import client
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    QueryAnswer,
    decode_request,
    encode_line,
)


class TestProtocol:
    def test_request_round_trip(self):
        line = encode_line({"op": "query", "n": 16, "r": 4})
        assert decode_request(line) == {"op": "query", "n": 16, "r": 4}

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2]\n",
            b'{"op": "explode"}\n',
            b'{"op": "query", "n": 16}\n',
            b'{"op": "query", "n": true, "r": 4}\n',
            b'{"op": "query", "n": 0, "r": 4}\n',
        ],
    )
    def test_malformed_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_request(b"x" * (MAX_LINE_BYTES + 1))

    def test_answer_dict_omits_nones_and_infinities(self):
        answer = QueryAnswer(
            n=12,
            r=4,
            source="bounds",
            h_aspl_lower_bound=3.27,
            lacin_h_aspl_baseline=float("inf"),
        )
        record = answer.to_dict()
        assert "h_aspl" not in record
        assert "lacin_h_aspl_baseline" not in record
        json.dumps(record, allow_nan=False)  # strictly valid JSON


@pytest.fixture(scope="module")
def seeded_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    store = CampaignStore(root, "seed")
    resolve_block(16, 4, store=store, steps=60)
    resolve_block(20, 4, store=store, steps=60)
    return root


def _server(root, **overrides):
    defaults = dict(
        store_root=root,
        campaigns=("seed",),
        refine_steps=50,
    )
    defaults.update(overrides)
    return TopologyServer(ServeConfig(**defaults), port=0)


async def _call(fn, *args, **kwargs):
    return await asyncio.to_thread(fn, *args, **kwargs)


class TestServerEndToEnd:
    def test_query_ping_stats_shutdown(self, seeded_root, tmp_path):
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            serve_task = asyncio.create_task(
                server.serve_until_shutdown(port_file=tmp_path / "port")
            )
            await asyncio.sleep(0)  # let the port file land
            assert int((tmp_path / "port").read_text()) == port

            warm = await _call(client.query, "127.0.0.1", port, 16, 4)
            assert warm["source"] == "index" and warm["campaign"] == "seed"
            cold = await _call(client.query, "127.0.0.1", port, 12, 4)
            assert cold["source"] == "bounds" and cold["refine"] == "disabled"
            assert await _call(client.ping, "127.0.0.1", port)
            stats = await _call(client.stats, "127.0.0.1", port)
            assert stats["hits"] == 1 and stats["misses"] == 1

            await _call(client.shutdown, "127.0.0.1", port)
            await asyncio.wait_for(serve_task, timeout=10)

        asyncio.run(run())

    def test_shutdown_closes_idle_connections(self, seeded_root, caplog):
        # A client that stays connected must neither hold shutdown up (on
        # Python 3.12+ wait_closed() waits for its handler) nor leave its
        # handler to be cancelled at loop exit, which logs an asyncio
        # traceback ("Exception in callback ... CancelledError").
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            serve_task = asyncio.create_task(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_line({"op": "ping"}))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"] is True
            await _call(client.shutdown, "127.0.0.1", port)
            await asyncio.wait_for(serve_task, timeout=5)
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            await writer.wait_closed()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(run())
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_malformed_line_answers_error_and_keeps_connection(self, seeded_root):
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"not json\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            assert error["ok"] is False and "bad request" in error["error"]
            # Same connection still serves real requests afterwards.
            writer.write(encode_line({"op": "ping"}))
            await writer.drain()
            pong = json.loads(await reader.readline())
            assert pong["ok"] is True
            writer.close()
            await writer.wait_closed()
            await server.aclose()

        asyncio.run(run())

    def test_concurrent_cold_queries_single_flight_refine(
        self, seeded_root, tmp_path
    ):
        server = _server(
            seeded_root, refine_campaign=f"refine-{tmp_path.name}"
        )

        async def run():
            await server.start()
            port = server.bound_port
            answers = await asyncio.gather(
                *[_call(client.query, "127.0.0.1", port, 12, 4) for _ in range(4)]
            )
            stats = await _call(client.stats, "127.0.0.1", port)
            await server.aclose()  # drains the refinement
            return answers, stats

        answers, stats = asyncio.run(run())
        assert all(a["source"] == "bounds" for a in answers)
        assert stats["refinements"] == 1  # single-flight across connections
        # Queries are answered one at a time on the loop: the first miss
        # starts the refinement, the later ones find it in flight.
        started = [a.get("refine") for a in answers].count("started")
        assert started == 1
        refined = CampaignStore(seeded_root, f"refine-{tmp_path.name}").best_for(
            12, 4
        )
        assert refined is not None

    def test_corrupt_point_still_serves_other_keys(self, seeded_root, tmp_path):
        # Copy the seeded store, corrupt one point, and serve from the copy.
        import shutil

        root = tmp_path / "stores"
        shutil.copytree(seeded_root, root)
        store = CampaignStore(root, "seed")
        victim = store.best_for(20, 4)
        assert victim is not None
        (store.point_dir(victim.digest) / "point.json").write_text("{ torn")
        (store.point_dir(victim.digest) / "result.json").write_text("{ torn")
        server = _server(root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            healthy = await _call(client.query, "127.0.0.1", port, 16, 4)
            poisoned = await _call(client.query, "127.0.0.1", port, 20, 4)
            await server.aclose()
            return healthy, poisoned

        healthy, poisoned = asyncio.run(run())
        assert healthy["source"] == "index"  # unaffected key still serves
        # The corrupted key answers too — no exception, just a fallback.
        assert poisoned["source"] in ("bounds", "compose-predicted")

    def test_busy_rejection_reaches_client(self, seeded_root):
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            assert (await _call(client.query, "127.0.0.1", port, 16, 4))["source"] == "index"
            # The listener still accepts while the service drains; a query
            # that reaches the draining service is rejected with busy=True.
            await server.service.aclose()
            with pytest.raises(client.ServerError, match="draining") as excinfo:
                await _call(client.query, "127.0.0.1", port, 16, 4)
            assert excinfo.value.busy
            await server.aclose()

        asyncio.run(run())


HOST = "127.0.0.1"


@pytest.fixture
def no_kept_connection():
    """Start and end without a kept client connection."""
    client._close_kept()
    yield
    client._close_kept()


@pytest.fixture
def accepted(monkeypatch):
    """Peer addresses of the connections every server accepts."""
    peers: list[tuple[str, int]] = []
    handle = TopologyServer._handle_connection

    async def counting(self, reader, writer):
        peers.append(writer.get_extra_info("peername"))
        await handle(self, reader, writer)

    monkeypatch.setattr(TopologyServer, "_handle_connection", counting)
    return peers


class _Stub:
    """A TCP listener that plays ``script`` on each connection it accepts:
    per request line read, bytes are sent back and ``None`` closes the
    connection; past the script's end it holds the connection open and
    never answers."""

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self._listener = socket.create_server((HOST, 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            with conn, conn.makefile("rb") as reader:
                for reply in self.script:
                    if not reader.readline() or reply is None:
                        break
                    conn.sendall(reply)
                else:
                    reader.read()  # silent until the client hangs up

    def close(self):
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()


@pytest.mark.usefixtures("no_kept_connection")
class TestKeptConnection:
    """The client keeps its connection open between calls."""

    def test_sequential_calls_share_one_connection(self, seeded_root, accepted):
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            answers = await _call(
                lambda: [client.query(HOST, port, 16, 4) for _ in range(50)]
            )
            await server.aclose()
            return answers

        answers = asyncio.run(run())
        assert [a["source"] for a in answers] == ["index"] * 50
        assert len(accepted) == 1

    def test_restarted_server_is_reached_by_one_retry(self, seeded_root, accepted):
        first = _server(seeded_root, refine=False)

        async def run():
            await first.start()
            port = first.bound_port
            before = await _call(client.query, HOST, port, 16, 4)
            await first.aclose()  # closes the kept connection's far end
            second = TopologyServer(first.service.config, port=port)
            await second.start()
            after = await _call(client.query, HOST, port, 16, 4)
            await second.aclose()
            return before, after

        before, after = asyncio.run(run())
        assert after == before
        assert len(accepted) == 2

    def test_unanswered_fresh_connection_still_raises(self):
        stub = _Stub([None])
        try:
            with pytest.raises(client.ServerError, match="closed the connection without"):
                client.ping(HOST, stub.port, timeout=5)
        finally:
            stub.close()
        assert stub.accepted == 1

    def test_timeout_is_not_retried(self):
        stub = _Stub([encode_line({"ok": True, "result": {"pong": True}})])
        try:
            assert client.ping(HOST, stub.port)  # now kept
            t0 = time.perf_counter()
            with pytest.raises(TimeoutError):
                client.ping(HOST, stub.port, timeout=1.0)
            elapsed = time.perf_counter() - t0
        finally:
            stub.close()
        assert stub.accepted == 1
        assert elapsed < 2.0  # one timeout, not two

    def test_parallel_threads_get_their_own_answers(self, seeded_root):
        server = _server(seeded_root, refine=False)
        keys = [(16, 4), (20, 4), (12, 4), (24, 5)]

        async def run():
            await server.start()
            port = server.bound_port

            def ask(n, r):
                return [client.query(HOST, port, n, r) for _ in range(25)]

            answers = await asyncio.gather(*[_call(ask, n, r) for n, r in keys])
            await server.aclose()
            return answers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the slot between threads often
        try:
            results = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        for (n, r), answers in zip(keys, results):
            assert [(a["n"], a["r"]) for a in answers] == [(n, r)] * 25
            assert len({json.dumps(a, sort_keys=True) for a in answers}) == 1

    def test_exited_thread_leaves_no_open_socket(self, seeded_root):
        server = _server(seeded_root, refine=False)

        async def run():
            await server.start()
            port = server.bound_port
            worker = threading.Thread(
                target=lambda: [client.query(HOST, port, 16, 4) for _ in range(3)]
            )
            worker.start()
            await asyncio.to_thread(worker.join, 30)
            assert not worker.is_alive()
            await server.aclose()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(run())
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == [], [str(w.message) for w in leaked]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_opens_its_own_connection(self, seeded_root, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        port_file = tmp_path / "port"
        port = None
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(seeded_root),
             "--campaigns", "seed", "--no-refine", "--port", "0",
             "--port-file", str(port_file)],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not (port_file.exists() and port_file.read_text().strip()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            port = int(port_file.read_text())
            answer = client.query(HOST, port, 16, 4)
            parent_end = client._kept.sock.getsockname()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report its answer and its connection
                code = 1
                try:
                    os.close(read_fd)
                    child_answer = client.query(HOST, port, 16, 4)
                    child_end = client._kept.sock.getsockname()
                    os.write(write_fd, json.dumps([child_answer, child_end]).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as pipe:
                report = pipe.read()
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            child_answer, child_end = json.loads(report)
            assert child_answer == answer
            assert tuple(child_end) != parent_end
            # The parent's connection is untouched by the child.
            assert client.query(HOST, port, 16, 4) == answer
            assert client._kept.sock.getsockname() == parent_end
        finally:
            if port is not None:
                client.shutdown(HOST, port)
            else:
                proc.kill()
            proc.wait(timeout=30)
