"""TopologyService: hits, fallbacks, single-flight refinement, drain.

The environment ships no async test plugin, so every test is a sync
function driving its coroutine through ``asyncio.run`` — which also
exercises the service's own claim that it owns no loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.index import IndexEntry, best_by_nr, best_candidates, encode_entry
from repro.campaign.spec import normalize_point, point_digest
from repro.campaign.store import CampaignStore, IndexCursor
from repro.compose.blocks import resolve_block
from repro.core.annealing import AnnealingSchedule
from repro.core.solver import solve_orp
from repro.obs import MemorySink, TelemetryRegistry
from repro.serve import ServeBusy, ServeConfig, TopologyService
from repro.serve.service import _Shard


@pytest.fixture(scope="module")
def seeded_root(tmp_path_factory):
    """A store root with one solved block at (16, 4)."""
    root = tmp_path_factory.mktemp("stores")
    store = CampaignStore(root, "seed")
    store.save_spec.__doc__  # touch to keep mypy quiet about unused fixture
    block = resolve_block(16, 4, store=store, steps=60)
    return root, block


def _config(root, **overrides):
    defaults = dict(
        store_root=root,
        campaigns=("seed",),
        refine_steps=50,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _events(tel, name):
    return [e for e in tel.snapshot()["events"] if e["name"] == name]


class TestAnswers:
    def test_index_hit(self, seeded_root):
        root, block = seeded_root
        service = TopologyService(_config(root))

        async def run():
            answer = await service.query(16, 4)
            await service.aclose()
            return answer

        answer = asyncio.run(run())
        assert answer.source == "index"
        assert answer.digest == block.digest
        assert answer.h_aspl == block.h_aspl
        assert answer.campaign == "seed"
        assert answer.refine is None
        assert service.counts["hits"] == 1

    def test_bounds_fallback_on_miss(self, seeded_root):
        root, _ = seeded_root
        service = TopologyService(_config(root, refine=False))

        async def run():
            answer = await service.query(12, 4)
            await service.aclose()
            return answer

        answer = asyncio.run(run())
        assert answer.source == "bounds"
        assert answer.h_aspl_lower_bound is not None
        assert answer.refine == "disabled"
        assert service.counts["misses"] == 1

    def test_compose_predicted_from_stored_block(self, seeded_root):
        # (32, 6) with block_hosts=16 plans 2 copies of a (16, 5) block.
        root, _ = seeded_root
        store = CampaignStore(root, "seed")
        block = resolve_block(16, 5, store=store, steps=60)
        service = TopologyService(_config(root, block_hosts=16, refine=False))

        async def run():
            answer = await service.query(32, 6)
            await service.aclose()
            return answer

        answer = asyncio.run(run())
        assert answer.source == "compose-predicted"
        assert answer.digest == block.digest
        assert answer.h_aspl is not None
        assert answer.detail["copies"] == 2
        assert answer.detail["block_radix"] == 5

    def test_warm_cache_revalidates_on_index_growth(self, seeded_root, tmp_path):
        root, _ = seeded_root
        # Use a private root so the shared fixture store stays untouched.
        own = tmp_path / "stores"
        store = CampaignStore(own, "seed")
        resolve_block(16, 4, store=store, steps=60)
        service = TopologyService(_config(own, refine=False))

        async def run():
            first = await service.query(20, 4)
            resolve_block(20, 4, store=store, steps=60, seed=3)
            second = await service.query(20, 4)
            await service.aclose()
            return first, second

        first, second = asyncio.run(run())
        assert first.source == "bounds"
        assert second.source == "index"

    def test_corrupt_block_graph_falls_through(self, tmp_path):
        # A stored block whose graph no longer parses fails like one that
        # fails verification: the runner-up block answers, then bounds, and
        # the failure is not memoized.  It used to escape as ValueError.
        store = CampaignStore(tmp_path, "seed")
        resolve_block(16, 5, store=store, steps=60)
        resolve_block(16, 5, store=store, use_best=False, steps=60, seed=1)
        first, second = best_candidates(store.index_entries(), 16, 5)
        graphs = [store.graph_path(e.digest) for e in (first, second)]
        texts = [path.read_text() for path in graphs]
        service = TopologyService(_config(tmp_path, block_hosts=16, refine=False))

        async def run():
            graphs[0].write_text("garbage\n")
            graphs[1].write_text("HSG v1\n")
            answers = [await service.query(32, 6)]
            for path, text in zip(graphs[::-1], texts[::-1]):
                path.write_text(text)  # repair the runner-up, then the best
                answers.append(await service.query(32, 6))
            await service.aclose()
            return answers

        floor, runner_up, best = asyncio.run(run())
        assert floor.source == "bounds"
        assert (runner_up.source, runner_up.digest) == ("compose-predicted", second.digest)
        assert (best.source, best.digest) == ("compose-predicted", first.digest)

    def test_block_summary_is_memoized_per_digest(self, tmp_path, monkeypatch):
        from repro.compose import predict
        from repro.core.serialization import load_graph

        store = CampaignStore(tmp_path, "seed")
        block = resolve_block(16, 5, store=store, steps=60)
        summary = predict.summarize_block(load_graph(store.graph_path(block.digest)))
        calls = []

        def counting(graph):
            calls.append(graph)
            return summary

        monkeypatch.setattr(predict, "summarize_block", counting)
        service = TopologyService(_config(tmp_path, block_hosts=16, refine=False))
        keys = [(32, 6), (31, 6), (48, 7), (32, 6)]  # all plan the (16, 5) block

        async def run():
            answers = [await service.query(n, r) for n, r in keys]
            shutil.rmtree(store.point_dir(block.digest))
            answers.append(await service.query(47, 7))
            await service.aclose()
            return answers

        *composed, missing = asyncio.run(run())
        assert len(calls) == 1
        assert [a.source for a in composed] == ["compose-predicted"] * len(keys)
        assert [a.h_aspl for a in composed] == [
            predict.predict_h_aspl(summary, copies) for copies in (2, 2, 3, 2)
        ]
        assert missing.source == "bounds"  # verified on every answer


def _replace_file(path, data):
    """Atomically replace ``path`` (a new inode), as store writers do."""
    tmp = path.with_name(path.name + ".test.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _tear(store, digest):
    path = store.point_dir(digest) / "point.json"
    path.write_text("{ torn")


def _kind(store, digest):
    path = store.point_dir(digest) / "point.json"
    point = json.loads(path.read_text())
    _replace_file(path, json.dumps({**point, "kind": "compose"}).encode())


def _delete_graph(store, digest):
    store.graph_path(digest).unlink()


class TestVerificationMemo:
    """verify_entry memoizes its verdict by the stat of the files it checks."""

    @pytest.fixture
    def two_points(self, tmp_path):
        """A store with two solved (16, 4) points, best first, and a saved
        copy of each point directory's files."""
        store = CampaignStore(tmp_path, "seed")
        resolve_block(16, 4, store=store, steps=60)
        resolve_block(16, 4, store=store, use_best=False, steps=60, seed=1)
        best, runner_up = best_candidates(store.index_entries(), 16, 4)
        saved = {
            path: path.read_bytes()
            for entry in (best, runner_up)
            for path in store.point_dir(entry.digest).iterdir()
        }
        return tmp_path, store, best, runner_up, saved

    @pytest.mark.parametrize("corrupt", [_tear, _kind, _delete_graph])
    def test_a_changed_point_falls_through_and_restores(self, two_points, corrupt):
        root, store, best, runner_up, saved = two_points
        tel = TelemetryRegistry("t")
        sink = MemorySink()
        tel.add_sink(sink)
        service = TopologyService(_config(root, refine=False), telemetry=tel)

        async def run():
            warm = await service.query(16, 4)  # verified once: the memo is warm
            corrupt(store, best.digest)
            fallen = await service.query(16, 4)
            _delete_graph(store, runner_up.digest)
            floor = await service.query(16, 4)
            for path, data in saved.items():
                _replace_file(path, data)
            restored = await service.query(16, 4)
            await service.aclose()
            return warm, fallen, floor, restored

        warm, fallen, floor, restored = asyncio.run(run())
        assert (warm.source, warm.digest) == ("index", best.digest)
        assert (fallen.source, fallen.digest) == ("index", runner_up.digest)
        assert floor.source == "bounds"
        assert (restored.source, restored.digest) == ("index", best.digest)
        reports = [
            (e["name"], e["fields"]["unverified"])
            for e in sink.events
            if e["name"] in ("serve.hit", "serve.miss")
        ]
        assert reports == [
            ("serve.hit", 0), ("serve.hit", 1), ("serve.miss", 2), ("serve.hit", 0),
        ]

    def test_repeated_verification_opens_no_file(self, two_points, monkeypatch):
        from repro.campaign import store as store_module

        _, store, best, _, _ = two_points
        reads = []
        read = store_module._read_json_opt
        monkeypatch.setattr(
            store_module, "_read_json_opt", lambda path: reads.append(path) or read(path)
        )
        first = store.verify_entry(best)
        assert len(reads) == 1
        assert [store.verify_entry(best) for _ in range(3)] == [first] * 3
        assert len(reads) == 1  # unchanged files: stat only
        first.point["n"] = -1  # a caller's edit does not reach the memo
        assert store.verify_entry(best).point["n"] == 16


_SHAPES = ((16, 4), (20, 4), (16, 5))
_SCORES = (3.0, 3.25, 3.5, 3.3333333333333335)
_FOREIGN = (
    b"not json\n",
    b'{"digest": "x", "n": 16}\n',
    b"[1, 2]\n",
    b"\xff\xfe\n",
    b"\n",
    b'{"digest":"y","h_aspl":3.0,"n":true,"r":4}\n',
)
_OP_ARGS = {
    "save": st.tuples(st.sampled_from(_SHAPES), st.integers(0, 4), st.sampled_from(_SCORES)),
    "resave": st.tuples(st.integers(0, 99), st.sampled_from((None, *_SCORES))),
    "torn": st.tuples(st.integers(1, 90)),
    "complete": st.tuples(),
    "foreign": st.tuples(st.sampled_from(_FOREIGN)),
    "rebuild": st.tuples(st.sampled_from(("scan", "same-size", "larger"))),
    "truncate": st.tuples(st.floats(0.0, 1.0)),
    "delete": st.tuples(),
    "refresh": st.tuples(),
}
# Saves and reads dominate, as in a live store; every other change is
# drawn too.
_KINDS = ("save",) * 6 + ("resave",) * 2 + ("refresh",) * 3 + tuple(_OP_ARGS)[2:-1]
_INDEX_OPS = st.lists(
    st.sampled_from(_KINDS).flatmap(
        lambda kind: _OP_ARGS[kind].map(lambda args: (kind, *args))
    ),
    min_size=10,
    max_size=40,
)


@pytest.fixture(scope="module")
def solution():
    return solve_orp(16, 4, schedule=AnnealingSchedule(num_steps=60), seed=0)


def _replace_index(store, data):
    """Atomically replace the index with ``data`` (a new inode)."""
    tmp = store.index_path.with_name("index.jsonl.test.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, store.index_path)


def _append_index(store, data):
    with open(store.index_path, "ab") as fh:
        fh.write(data)


class TestWarmLeaderboard:
    """The warm fold equals a full decode after every refresh."""

    @staticmethod
    def _check(shard):
        board = shard.refresh()
        entries = shard.store.index_entries()
        latest = {e.digest: e for e in entries}.values()
        for n, r in set(_SHAPES) | {(e.n, e.r) for e in entries}:
            reference = sorted(
                (e for e in latest if (e.n, e.r) == (n, r)), key=lambda e: e.sort_key
            )
            assert board.candidates(n, r) == best_candidates(entries, n, r) == reference
        assert board.best() == best_by_nr(entries)

    @settings(max_examples=60, deadline=None)
    @given(ops=_INDEX_OPS)
    def test_fold_equals_full_decode(self, solution, ops):
        # Appends (saves, re-saves, torn and foreign lines) may pile up
        # between refreshes.  A truncation is read before the file grows
        # again: the cursor sees a shrink only when a read falls between
        # the two (see DESIGN.md §14); writers never truncate the index.
        with tempfile.TemporaryDirectory() as root:
            store = CampaignStore(root, "idx")
            store.dir.mkdir()
            shard = _Shard(store, IndexCursor(store.index_path))
            saved = {}
            pending = b""
            for op in ops:
                kind = op[0]
                if kind == "save" or (kind == "resave" and saved):
                    if kind == "save":
                        (n, r), seed, score = op[1:]
                        point = normalize_point({"n": n, "r": r, "steps": 60, "seed": seed})
                        digest = point_digest(point)
                    else:
                        digest = sorted(saved)[op[1] % len(saved)]
                        point, score = saved[digest]
                        score = score if op[2] is None else op[2]
                    saved[digest] = (point, score)
                    store.save_result(
                        digest, point, dataclasses.replace(solution, h_aspl=score)
                    )
                elif kind == "torn":
                    line = encode_entry(IndexEntry("t" * 64, 16, 4, 3.125)).encode()
                    cut = min(op[1], len(line) - 1)
                    _append_index(store, line[:cut])
                    pending = line[cut:]
                elif kind == "complete" and pending:
                    _append_index(store, pending)
                    pending = b""
                elif kind == "foreign":
                    _append_index(store, op[1])
                elif kind == "rebuild" and op[1] == "scan":
                    store.rebuild_index()
                elif kind == "rebuild" and store.has_index():
                    data = store.index_path.read_bytes()
                    *lines, tail = data.split(b"\n")
                    if op[1] == "same-size":
                        data = b"".join(line + b"\n" for line in reversed(lines)) + tail
                    else:
                        extra = IndexEntry("e" * 64, *_SHAPES[len(lines) % 3], 3.0)
                        data += encode_entry(extra).encode()
                    _replace_index(store, data)
                elif kind == "truncate" and store.has_index():
                    size = store.index_path.stat().st_size
                    os.truncate(store.index_path, int(op[1] * size))
                    self._check(shard)
                elif kind == "delete":
                    store.index_path.unlink(missing_ok=True)
                elif kind == "refresh":
                    self._check(shard)
            self._check(shard)
            shard.cursor.close()


class TestRefinement:
    def test_miss_starts_single_flight_refinement(self, seeded_root, tmp_path):
        root, _ = seeded_root
        tel = TelemetryRegistry("t")
        service = TopologyService(
            _config(root, refine_campaign=f"refine-{tmp_path.name}"),
            telemetry=tel,
        )

        async def run():
            first = await service.query(12, 4)
            second = await service.query(12, 4)  # refine still in flight
            await service.aclose()
            return first, second

        first, second = asyncio.run(run())
        assert first.refine == "started"
        assert second.refine == "in-flight"
        assert service.counts["refinements"] == 1
        assert len(_events(tel, "serve.refine.start")) == 1
        assert len(_events(tel, "serve.refine.done")) == 1

        # ... and the refined key is an index hit for a fresh service.
        fresh = TopologyService(
            _config(root, refine_campaign=f"refine-{tmp_path.name}")
        )

        async def requery():
            answer = await fresh.query(12, 4)
            await fresh.aclose()
            return answer

        assert asyncio.run(requery()).source == "index"

    def test_failed_refinement_emits_event_and_allows_retry(
        self, seeded_root, monkeypatch, tmp_path
    ):
        root, _ = seeded_root
        tel = TelemetryRegistry("t")
        service = TopologyService(
            _config(root, refine_campaign=f"refine-{tmp_path.name}"), telemetry=tel
        )

        def boom(n, r):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(service, "_refine_solve", boom)

        async def run():
            first = await service.query(12, 4)
            await asyncio.gather(
                *[t for t in service._refining.values()], return_exceptions=True
            )
            second = await service.query(12, 4)
            await service.aclose()
            return first, second

        first, second = asyncio.run(run())
        assert first.refine == "started"
        assert second.refine == "started"  # done (failed) task is replaced
        # Both attempts fail under the patched solver (the second during
        # the aclose drain), and each failure is reported.
        assert len(_events(tel, "serve.refine.failed")) == 2
        assert service.counts["refinements"] == 2


class TestConcurrencyControl:
    def test_only_refinement_leaves_the_loop(self, seeded_root, tmp_path, monkeypatch):
        # Index, compose and bounds answers resolve on the loop thread, as
        # do concurrent same-key queries; a refinement solve is the one
        # call handed to a worker thread.
        import repro.serve.service as service_module

        root, block = seeded_root
        composed = resolve_block(16, 5, store=CampaignStore(root, "seed"), steps=60)
        hops = []
        real_to_thread = service_module.asyncio.to_thread

        def spy(func, *args, **kwargs):
            hops.append(func.__name__)
            return real_to_thread(func, *args, **kwargs)

        monkeypatch.setattr(service_module.asyncio, "to_thread", spy)

        async def run(service, keys):
            answers = [
                await asyncio.gather(*(service.query(n, r) for _ in range(3)))
                for n, r in keys
            ]
            await service.aclose()
            return answers

        config = _config(
            root, block_hosts=16, refine=False, refine_campaign=f"refine-{tmp_path.name}"
        )
        keys = [(16, 4), (32, 6), (12, 4)]
        answers = asyncio.run(run(TopologyService(config), keys))
        assert hops == []
        assert [[a.source for a in same] for same in answers] == [
            ["index"] * 3, ["compose-predicted"] * 3, ["bounds"] * 3
        ]
        assert all(a == same[0] for same in answers for a in same)
        assert (answers[0][0].digest, answers[1][0].digest) == (block.digest, composed.digest)

        refining = TopologyService(dataclasses.replace(config, refine=True))
        (herd,) = asyncio.run(run(refining, [(12, 4)]))
        assert [a.refine for a in herd] == ["started", "in-flight", "in-flight"]
        assert hops == ["_refine_solve"]

    def test_drain_waits_for_inflight_refinement(self, seeded_root, tmp_path):
        root, _ = seeded_root
        service = TopologyService(
            _config(root, refine_campaign=f"refine-{tmp_path.name}")
        )

        async def run():
            await service.query(12, 4)  # miss: refinement starts
            assert service.stats()["refining"] == 1
            await service.aclose()
            assert service.stats()["refining"] == 0
            with pytest.raises(ServeBusy, match="draining"):
                await service.query(16, 4)

        asyncio.run(run())
        refined = CampaignStore(root, f"refine-{tmp_path.name}").best_for(12, 4)
        assert refined is not None  # the refinement ran to completion

    def test_telemetry_uses_closed_registry_names(self, seeded_root, tmp_path):
        from repro.obs.names import INSTRUMENTS

        root, _ = seeded_root
        tel = TelemetryRegistry("t")
        sink = MemorySink()
        tel.add_sink(sink)
        service = TopologyService(
            _config(root, refine_campaign=f"refine-{tmp_path.name}"), telemetry=tel
        )

        async def run():
            await service.query(16, 4)
            await service.query(12, 4)
            await service.aclose()

        asyncio.run(run())
        served = {
            e["name"] for e in sink.events
            if e["name"].startswith("serve.")
        }
        assert served  # the service actually reported
        assert served <= INSTRUMENTS
