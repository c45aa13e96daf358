"""TCP server + blocking client end-to-end, and the wire protocol."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

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
