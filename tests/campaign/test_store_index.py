"""Leaderboard index, corruption tolerance, and concurrent-writer fixes."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import threading

import pytest

from repro.campaign.index import (
    IndexEntry,
    best_by_nr,
    best_candidates,
    decode_index_text,
    encode_entry,
)
from repro.campaign.spec import load_spec, normalize_point, point_digest
from repro.campaign.store import CampaignStore, IndexCursor, StoreError
from repro.core.annealing import AnnealingSchedule
from repro.core.solver import solve_orp


def _point(n=16, r=4, **overrides):
    base = {"n": n, "r": r, "steps": 60, "restarts": 1}
    base.update(overrides)
    return normalize_point(base)


@pytest.fixture(scope="module")
def solution():
    return solve_orp(16, 4, schedule=AnnealingSchedule(num_steps=60), seed=0)


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path, "idx")


def _save(store, solution, *, n=16, r=4, seed=0, h_aspl=None):
    """Store a (possibly fabricated-score) variant of the module solution."""
    point = _point(n=n, r=r, seed=seed)
    sol = solution if h_aspl is None else dataclasses.replace(solution, h_aspl=h_aspl)
    digest = point_digest(point)
    store.save_result(digest, point, sol)
    return digest


class TestIndexCodec:
    def test_entry_round_trip(self):
        entry = IndexEntry(digest="a" * 64, n=16, r=4, h_aspl=3.2727272727272725)
        [back] = decode_index_text(encode_entry(entry))
        assert back == entry  # floats survive bit-identically

    def test_torn_and_foreign_lines_skipped(self):
        good = encode_entry(IndexEntry(digest="a" * 64, n=16, r=4, h_aspl=3.5))
        text = (
            good
            + '{"digest": "b", "n": 16}\n'  # missing keys
            + "{ torn"  # no trailing newline: a mid-write tail
        )
        assert decode_index_text(text) == decode_index_text(good)

    def test_bool_typed_fields_rejected(self):
        line = json.dumps({"digest": "a", "n": True, "r": 4, "h_aspl": 3.0}) + "\n"
        assert decode_index_text(line) == []

    def test_best_candidates_tie_breaks_to_smallest_digest(self):
        entries = [
            IndexEntry(digest="b" * 64, n=16, r=4, h_aspl=3.5),
            IndexEntry(digest="a" * 64, n=16, r=4, h_aspl=3.5),
            IndexEntry(digest="c" * 64, n=16, r=4, h_aspl=3.0),
            IndexEntry(digest="d" * 64, n=20, r=4, h_aspl=1.0),
        ]
        ranked = best_candidates(entries, 16, 4)
        assert [e.digest[0] for e in ranked] == ["c", "a", "b"]
        board = best_by_nr(entries)
        assert board[(16, 4)].digest == "c" * 64
        assert board[(20, 4)].digest == "d" * 64


class TestIndexMaintenance:
    def test_save_result_appends_entry(self, store, solution):
        digest = _save(store, solution)
        entries = store.index_entries()
        assert [e.digest for e in entries] == [digest]
        assert entries[0].n == 16 and entries[0].r == 4
        assert entries[0].h_aspl == solution.h_aspl

    def test_kinded_points_not_indexed(self, store, solution):
        from repro.compose.fabric import build_fabric

        _save(store, solution)
        result = build_fabric(16, 8, copies=2, steps=50)
        store.save_result("f" * 64, {"kind": "compose", "n": 16, "r": 8}, result)
        assert len(store.index_entries()) == 1

    def test_legacy_store_migrates_on_first_save(self, store, solution):
        a = _save(store, solution, seed=0)
        b = _save(store, solution, seed=1, h_aspl=solution.h_aspl + 1)
        store.index_path.unlink()  # a store from before the index existed
        c = _save(store, solution, seed=2, h_aspl=solution.h_aspl + 2)
        assert {e.digest for e in store.index_entries()} == {a, b, c}

    def test_rebuild_counts_unreadable_points(self, store, solution):
        good = _save(store, solution, seed=0)
        bad = _save(store, solution, seed=1)
        (store.point_dir(bad) / "result.json").write_text("{ torn")
        stats = store.rebuild_index()
        assert stats.entries == 1 and stats.skipped == 1
        assert stats.skipped_digests == (bad,)
        assert [e.digest for e in store.index_entries()] == [good]
        assert store.unreadable_points() == [bad]

    def test_append_is_single_atomic_write(self, store, solution):
        # Concurrent pool workers append without locks; every record must
        # land whole even when saves interleave across threads.
        barrier = threading.Barrier(4)

        def save(seed):
            barrier.wait()
            _save(store, solution, seed=seed, h_aspl=solution.h_aspl + seed)

        threads = [threading.Thread(target=save, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.index_entries()) == 4


class TestBestForFromIndex:
    def test_answers_without_scanning(self, store, solution, monkeypatch):
        digest = _save(store, solution)
        monkeypatch.setattr(
            store,
            "digests",
            lambda: pytest.fail("best_for must not scan point directories"),
        )
        best = store.best_for(16, 4)
        assert best is not None and best.digest == digest

    def test_missing_index_means_no_answer_not_a_scan(self, store, solution):
        _save(store, solution)
        store.index_path.unlink()
        assert store.best_for(16, 4) is None
        store.rebuild_index()
        assert store.best_for(16, 4) is not None

    def test_corrupt_point_does_not_poison_other_keys(self, store, solution):
        _save(store, solution, n=16, r=4, seed=0)
        bad = _save(store, solution, n=20, r=4, seed=0)
        (store.point_dir(bad) / "point.json").write_text("{ torn")
        (store.point_dir(bad) / "result.json").write_text("{ torn")
        best = store.best_for(16, 4)  # the old scan raised StoreError here
        assert best is not None and best.h_aspl == solution.h_aspl

    def test_deleted_winner_falls_through_to_next_candidate(self, store, solution):
        best_digest = _save(store, solution, seed=0, h_aspl=3.0)
        runner_up = _save(store, solution, seed=1, h_aspl=3.5)
        import shutil

        shutil.rmtree(store.point_dir(best_digest))
        best = store.best_for(16, 4)
        assert best is not None and best.digest == runner_up

    def test_scan_oracle_counts_skipped(self, store, solution):
        _save(store, solution, seed=0)
        bad = _save(store, solution, seed=1)
        (store.point_dir(bad) / "point.json").write_text("{ torn")
        scan = store.best_for_scan(16, 4)
        assert scan.best is not None and scan.skipped == 1

    def test_property_index_equals_scan_under_interleavings(self, store, solution):
        # Any interleaving of saves across several (n, r) keys must leave
        # the index answer bit-identical to a from-scratch full scan.
        rng = random.Random(7)
        shapes = [(16, 4), (20, 4), (16, 5)]
        for step in range(24):
            n, r = rng.choice(shapes)
            _save(
                store,
                solution,
                n=n,
                r=r,
                seed=rng.randrange(1000),
                h_aspl=round(3.0 + rng.random(), 6),
            )
            for shape in shapes:
                indexed = store.best_for(*shape)
                scanned = store.best_for_scan(*shape).best
                if scanned is None:
                    assert indexed is None
                else:
                    assert indexed is not None
                    assert indexed.digest == scanned.digest
                    assert indexed.h_aspl == scanned.h_aspl


def _rewrite_same_size(store, seen):
    # Same inode and size, new content; the mtime differs from the one
    # the cursor saw even on a filesystem with coarse timestamps.
    [a, b] = store.index_entries()
    data = encode_entry(dataclasses.replace(a, h_aspl=3.75)) + encode_entry(b)
    with open(store.index_path, "r+b") as fh:
        fh.write(data.encode())
    os.utime(store.index_path, ns=(seen.st_atime_ns, seen.st_mtime_ns + 10**9))


def _rewrite_grown(store, seen):
    # Same inode, larger: one line in front moves the last consumed one.
    data = encode_entry(IndexEntry("c" * 64, 16, 4, 3.25)).encode()
    data += store.index_path.read_bytes()
    with open(store.index_path, "r+b") as fh:
        fh.write(data)


def _recreate_same_stat(store, seen):
    # Deleted and re-created with the same size and mtime: only the
    # inode differs, and the open cursor keeps the old one from reuse.
    [a, b] = store.index_entries()
    data = encode_entry(dataclasses.replace(a, h_aspl=3.75)) + encode_entry(b)
    store.index_path.unlink()
    store.index_path.write_text(data)
    os.utime(store.index_path, ns=(seen.st_atime_ns, seen.st_mtime_ns))


class TestIndexCursor:
    """The byte cursor reads appended lines only, and re-reads the whole
    file on each sign that it changed under the cursor."""

    def test_reads_only_appended_complete_lines(self, store, solution):
        _save(store, solution, seed=0)
        cursor = IndexCursor(store.index_path)
        assert cursor.read() == (True, store.index_entries())
        assert cursor.read() == (False, [])
        b = _save(store, solution, seed=1, h_aspl=3.5)
        full, entries = cursor.read()
        assert (full, [e.digest for e in entries]) == (False, [b])
        line = encode_entry(IndexEntry("c" * 64, 16, 4, 3.25)).encode()
        with open(store.index_path, "ab") as fh:
            fh.write(line[:30])
        assert cursor.read() == (False, [])  # a torn tail is not consumed
        with open(store.index_path, "ab") as fh:
            fh.write(line[30:])
        assert cursor.read() == (False, [IndexEntry("c" * 64, 16, 4, 3.25)])
        cursor.close()

    @pytest.mark.parametrize(
        "change",
        [
            lambda store, seen: store.rebuild_index(),
            lambda store, seen: os.truncate(store.index_path, seen.st_size // 2),
            _rewrite_same_size,
            _rewrite_grown,
            _recreate_same_stat,
        ],
        ids=["replaced", "truncated", "same-size-rewrite", "grown-rewrite", "recreated"],
    )
    def test_change_under_the_cursor_reads_it_all(self, store, solution, change):
        _save(store, solution, seed=0, h_aspl=3.25)
        _save(store, solution, seed=1, h_aspl=3.5)
        cursor = IndexCursor(store.index_path)
        cursor.read()
        change(store, store.index_path.stat())
        assert cursor.read() == (True, store.index_entries())
        assert cursor.read() == (False, [])
        cursor.close()

    def test_deleted_index_reads_empty_once(self, store, solution):
        _save(store, solution)
        cursor = IndexCursor(store.index_path)
        cursor.read()
        store.index_path.unlink()
        assert cursor.read() == (True, [])
        assert cursor.read() == (False, [])
        cursor.close()


class TestReaderHardening:
    def test_non_utf8_index_line_is_skipped(self, store, solution):
        digest = _save(store, solution)
        with open(store.index_path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        assert [e.digest for e in store.index_entries()] == [digest]
        assert store.best_for(16, 4).digest == digest  # used to raise UnicodeDecodeError

    def test_digests_hide_tmp_only_debris(self, store, solution):
        digest = _save(store, solution)
        debris = store.point_dir("0" * 64)
        debris.mkdir(parents=True)
        (debris / "result.json.tmp").write_text("{ partial")
        assert store.digests() == [digest]

    def test_stray_tmp_next_to_artifacts_is_harmless(self, store, solution):
        digest = _save(store, solution)
        (store.point_dir(digest) / "best.hsg.tmp").write_text("partial")
        assert store.digests() == [digest]
        assert store.best_for(16, 4) is not None

    def test_result_not_yet_replaced_is_pending_not_error(self, store):
        pdir = store.point_dir("1" * 64)
        pdir.mkdir(parents=True)
        (pdir / "point.json").write_text(json.dumps(_point()))
        assert store.point_state("1" * 64) == "pending"
        assert store.best_for_scan(16, 4).best is None

    def test_checkpoint_vanishing_mid_read_returns_none(self, store, monkeypatch):
        import repro.campaign.store as store_mod

        store.save_checkpoint("2" * 64, {"format": "x"})
        real_read = store_mod._read_json

        def vanish(path):
            if path.name == "checkpoint.json":
                os.unlink(path)
                raise StoreError(f"cannot read store artifact {path}: gone")
            return real_read(path)

        monkeypatch.setattr(store_mod, "_read_json", vanish)
        assert store.load_checkpoint("2" * 64) is None

    def test_corrupt_checkpoint_still_raises(self, store):
        pdir = store.point_dir("3" * 64)
        pdir.mkdir(parents=True)
        (pdir / "checkpoint.json").write_text("{ torn")
        with pytest.raises(StoreError, match="cannot read"):
            store.load_checkpoint("3" * 64)


class TestSaveSpecRace:
    DOC = {"name": "idx", "grid": {"n": [16], "r": [4]}, "defaults": {"steps": 60}}

    def test_concurrent_different_specs_exactly_one_wins(self, store):
        specs = [
            load_spec(dict(self.DOC, defaults={"steps": 60 + i})) for i in range(4)
        ]
        barrier = threading.Barrier(len(specs))
        errors: list[BaseException | None] = [None] * len(specs)

        def submit(i):
            barrier.wait()
            try:
                store.save_spec(specs[i])
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors[i] = exc

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(specs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        losers = [e for e in errors if e is not None]
        assert len(losers) == len(specs) - 1
        assert all(isinstance(e, StoreError) for e in losers)
        # The surviving document is exactly one submitter's spec, whole.
        on_disk = json.loads(store.spec_path.read_text())
        assert on_disk in [dict(s.raw) for s in specs]
        assert list(store.dir.glob("spec.json.*.tmp")) == []

    def test_identical_concurrent_specs_all_succeed(self, store):
        spec = load_spec(self.DOC)
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def submit():
            barrier.wait()
            try:
                store.save_spec(spec)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestExecutorCorruptionTolerance:
    def test_corrupt_cached_result_is_resolved_not_fatal(self, tmp_path):
        from repro.campaign.executor import run_campaign

        doc = {
            "name": "heal",
            "grid": {"n": [16], "r": [4]},
            "defaults": {"steps": 60, "restarts": 1},
        }
        spec = load_spec(doc)
        store = CampaignStore(tmp_path, "heal")
        first = run_campaign(spec, tmp_path)
        assert first.count("solved") == 1
        [digest] = [o.digest for o in first.outcomes]
        (store.point_dir(digest) / "result.json").write_text("{ torn")
        second = run_campaign(spec, tmp_path)  # used to raise StoreError
        assert second.count("solved") == 1
        assert store.load_result(digest).h_aspl is not None
        assert store.unreadable_points() == []


class TestStatusSurfacing:
    def test_status_reports_unreadable_count(self, tmp_path, solution, capsys):
        from repro.campaign.report import format_status

        doc = {
            "name": "rot",
            "grid": {"n": [16], "r": [4], "seed": [0, 1]},
            "defaults": {"steps": 60, "restarts": 1},
        }
        spec = load_spec(doc)
        store = CampaignStore(tmp_path, "rot")
        store.save_spec(spec)
        bad = _save(store, solution, seed=0)
        _save(store, solution, seed=1)
        (store.point_dir(bad) / "result.json").write_text("{ torn")
        text = format_status(spec, tmp_path)
        assert "1 unreadable point(s) skipped by queries" in text
        assert bad[:12] in text

    def test_status_silent_when_clean(self, tmp_path, solution):
        from repro.campaign.report import format_status

        doc = {
            "name": "clean",
            "grid": {"n": [16], "r": [4]},
            "defaults": {"steps": 60, "restarts": 1},
        }
        spec = load_spec(doc)
        store = CampaignStore(tmp_path, "clean")
        store.save_spec(spec)
        _save(store, solution)
        assert "unreadable" not in format_status(spec, tmp_path)


def _publish_first_results(roots, rank, barrier, results, solution):
    """Worker: publish one result into each store, in lockstep with peers.

    Reports the errors it saw as one list on ``results`` when done.
    """
    errors = []
    for root in roots:
        barrier.wait(timeout=60)
        try:
            store = CampaignStore(root, "idx")
            _save(store, solution, seed=rank, h_aspl=solution.h_aspl + rank)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            errors.append(f"{root.name} worker {rank}: {exc!r}")
    results.put(errors)


class TestFirstPublishRace:
    """Concurrent first publishes into fresh stores, one writer per process.

    Six processes publish their first result into the same new store at a
    barrier, store after store: 40 stores bound by ``save_spec`` first (as
    the executor does) and 40 bare ones (as compose blocks and serve
    refinement shards use them).  A shared temp name used to crash writers
    (``FileNotFoundError`` on ``index.jsonl.tmp``) and concurrent
    first-publish rebuilds could publish an index missing a point.
    """

    WORKERS = 6
    TRIALS = 40

    def test_index_equals_scan(self, tmp_path, solution):
        spec = load_spec({"name": "idx", "grid": {"n": [16], "r": [4]}})
        roots = []
        for trial in range(self.TRIALS):
            bound = tmp_path / f"bound{trial}"
            CampaignStore(bound, "idx").save_spec(spec)
            roots += [bound, tmp_path / f"bare{trial}"]
        _race_first_publishes(roots, self.WORKERS, solution)
        for root in roots:
            store = CampaignStore(root, "idx")
            assert len(store.index_entries()) == self.WORKERS, root.name
            best = store.best_for(16, 4)
            assert best is not None
            assert best.digest == store.best_for_scan(16, 4).best.digest


def _race_first_publishes(roots, workers, solution):
    """Run ``workers`` spawned writers through ``roots`` at a barrier."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(workers)
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_publish_first_results,
            args=(roots, rank, barrier, results, solution),
        )
        for rank in range(workers)
    ]
    for proc in procs:
        proc.start()
    errors = [e for _ in procs for e in results.get(timeout=120)]
    for proc in procs:
        proc.join(timeout=60)
    assert [p.exitcode for p in procs] == [0] * workers
    assert errors == []


class TestLegacyMigrationRace:
    """Concurrent first publishes into legacy stores (points, no index).

    Each writer migrates the store from a full scan.  Publishing the scan
    with a replace let the last writer win and drop the points published
    meanwhile; the migration now claims the index atomically and a writer
    that loses the claim appends its own record.
    """

    WORKERS = 6
    STORES = 30
    POINTS = 30

    def test_index_keeps_every_point(self, tmp_path, solution):
        template = CampaignStore(tmp_path / "template", "idx")
        for seed in range(100, 100 + self.POINTS):
            _save(template, solution, seed=seed, h_aspl=solution.h_aspl + seed)
        template.index_path.unlink()  # a store from before the index existed
        roots = [tmp_path / f"legacy{i}" for i in range(self.STORES)]
        for root in roots:
            shutil.copytree(template.root, root)
        _race_first_publishes(roots, self.WORKERS, solution)
        for root in roots:
            store = CampaignStore(root, "idx")
            indexed = {e.digest for e in store.index_entries()}
            assert indexed == set(store.digests()), root.name
            assert len(indexed) == self.POINTS + self.WORKERS
