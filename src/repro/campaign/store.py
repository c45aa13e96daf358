"""Content-addressed campaign result store — the package's only write path.

Layout under ``<root>/<campaign-name>/``:

.. code-block:: text

    spec.json                      # the spec document as submitted
    index.jsonl                    # append-only leaderboard (see below)
    points/<digest>/point.json     # normalized point parameters
    points/<digest>/result.json    # repro.result/v1 ORPSolution dict
    points/<digest>/best.hsg       # winning graph (HSG v1 text)
    points/<digest>/checkpoint.json# in-progress restart checkpoints
    points/<digest>/failure.json   # failure artifact (crash / timeout)

``<digest>`` is :func:`repro.campaign.spec.point_digest` — the SHA-256 of
the point's canonical JSON — so results are keyed by *content*, not by
position in a sweep: re-running any spec that expands to the same point
finds the cached solution, and two campaigns sharing a store never solve
the same point twice.

Every write lands via temp-file + :func:`os.replace`, so readers (and a
resumed campaign after a kill ``-9``) never observe a torn file.  Keeping
all artifact I/O in this module is enforced by repro-lint rule REP008.

Concurrent readers
------------------
The store doubles as a serving backend (:mod:`repro.serve`):
``index.jsonl`` is an append-only leaderboard of every solved plain-ORP
point (:mod:`repro.campaign.index`), updated atomically by
:meth:`CampaignStore.save_result` *after* the point's artifacts landed.
:meth:`best_for` answers from the index in one small file read instead of
an O(points) directory scan, and a long-lived reader (the serve layer)
keeps an :class:`IndexCursor` that reads only the lines appended since its
last read.  The scan survives only in :meth:`rebuild_index` (CLI
``--rebuild-index``) and the one-time migration of a legacy store, and is
tolerant of corrupt artifacts — unreadable points are skipped and counted,
never allowed to poison the whole answer.  Readers likewise tolerate every
mid-write state a long-running server can observe: point directories
whose ``result.json`` has not yet been replaced, ``*.tmp`` debris from
killed workers (excluded from :meth:`digests`), and checkpoint files
vanishing between an existence check and the read.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.analysis.resilience import (
    RESILIENCE_RESULT_FORMAT,
    ResilienceSweepResult,
)
from repro.campaign.index import (
    INDEX_FILE,
    IndexEntry,
    IndexRebuildStats,
    best_candidates,
    decode_index_text,
    encode_entry,
)
from repro.campaign.spec import CampaignSpec, canonical_json, load_spec
from repro.core.serialization import (
    graph_to_text,
    orp_solution_from_dict,
    orp_solution_to_dict,
)

__all__ = [
    "BestPoint",
    "CampaignStore",
    "IndexCursor",
    "IndexEntry",
    "IndexRebuildStats",
    "ScanBest",
    "StoreError",
    "POINT_STATES",
]

POINT_STATES = ("solved", "failed", "checkpointed", "pending")

_RESULT_FILE = "result.json"
_POINT_FILE = "point.json"
_GRAPH_FILE = "best.hsg"
_CHECKPOINT_FILE = "checkpoint.json"
_FAILURE_FILE = "failure.json"


class StoreError(RuntimeError):
    """A campaign store operation failed (corrupt or conflicting artifacts)."""


@dataclass(frozen=True)
class BestPoint:
    """The best solved ORP point for an ``(n, r)`` (see ``best_for``)."""

    digest: str
    point: dict[str, Any]
    h_aspl: float
    graph_path: Path


@dataclass(frozen=True)
class ScanBest:
    """Full-scan answer plus the unreadable points the scan tolerated."""

    best: BestPoint | None
    skipped: int
    """Points whose artifacts could not be read (corrupt/torn) — skipped
    rather than failing the query (``repro campaign status`` surfaces the
    count)."""


def _writer_temp(path: Path) -> Path:
    """A temp sibling of ``path`` private to this process and thread.

    Concurrent writers of one artifact must never share a temp file (one
    writer's rename would steal or clobber another's); the ``.tmp`` suffix
    keeps the debris out of :meth:`CampaignStore.digests`.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _writer_temp(path)
    tmp.write_text(text)
    os.replace(tmp, path)


def _claim_file(path: Path, text: str) -> bool:
    """Create ``path`` holding ``text`` unless it exists; ``True`` if this
    writer created it.

    The text goes to a temp file private to this writer, which is then
    hard-linked onto ``path``: exactly one of any number of concurrent
    claimants creates the link, and no reader ever sees a partial file.  A
    filesystem without hard links falls back to an ``O_EXCL`` create of
    ``path`` (still exclusive; a crash mid-write can leave it torn).
    """
    tmp = _writer_temp(path)
    tmp.write_text(text)
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    except OSError:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return True
    finally:
        tmp.unlink(missing_ok=True)


def _atomic_write_json(path: Path, obj: Any) -> None:
    _atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read store artifact {path}: {exc}") from exc


def _read_json_opt(path: Path) -> Any | None:
    """Tolerant read: ``None`` for missing, torn, or corrupt artifacts."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _decode_index(data: bytes) -> list[IndexEntry]:
    return decode_index_text(data.decode("utf-8", "replace"))


class IndexCursor:
    """A reader's byte position in one store's ``index.jsonl``.

    :meth:`read` decodes only the complete lines appended since the
    previous read; it never consumes past the last newline, so a torn tail
    is read once it is complete.  It reads the whole file again when the
    file changed under it: a new inode (a rebuild's replace, a delete and
    re-create), a size below the one it last saw (a truncation), a changed
    mtime at an unchanged size (a same-size rewrite), or the last consumed
    line no longer at its offset (a rewrite that grew).  The cursor keeps
    the file open, which pins its inode: a re-created index cannot reuse
    the number.  Not thread-safe; :meth:`close` releases the file.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._file: BinaryIO | None = None
        self._stamp = (0, 0, 0, 0)
        """``(st_dev, st_ino, st_size, st_mtime_ns)`` at the last read."""
        self._offset = 0
        """End of the last complete line consumed."""
        self._last = b""
        """That line, newline included."""

    def read(self) -> tuple[bool, list[IndexEntry]]:
        """``(full, entries)`` of the complete lines not consumed yet.

        ``full`` means the entries are the whole current file and replace
        everything read before; a missing file reads as empty.
        """
        try:
            stat: os.stat_result | None = os.stat(self.path)
        except OSError:
            stat = None
        if stat is None or self._file is None or (stat.st_dev, stat.st_ino) != self._stamp[:2]:
            had_file = self._file is not None
            self.close()
            try:
                self._file = open(self.path, "rb", buffering=0)
            except OSError:
                return had_file, []
            stat = os.fstat(self._file.fileno())
        elif (stat.st_size, stat.st_mtime_ns) == self._stamp[2:]:
            return False, []
        elif stat.st_size > self._stamp[2]:
            start = self._offset - len(self._last)
            self._file.seek(start)
            data = self._file.read(stat.st_size - start)
            if data.startswith(self._last):
                return False, self._consume(stat, data[len(self._last) :])
        self._offset, self._last = 0, b""
        self._file.seek(0)
        return True, self._consume(stat, self._file.read(stat.st_size))

    def close(self) -> None:
        """Release the file; the next read starts over with a full read."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def _consume(self, stat: os.stat_result, data: bytes) -> list[IndexEntry]:
        """Decode the complete lines of ``data``, the bytes from the offset."""
        self._stamp = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
        end = data.rfind(b"\n") + 1
        if end == 0:
            return []
        self._offset += end
        self._last = data[data.rfind(b"\n", 0, end - 1) + 1 : end]
        return _decode_index(data[:end])


class CampaignStore:
    """Artifact store for one campaign under ``<root>/<name>/``."""

    def __init__(self, root: str | Path, name: str) -> None:
        self.root = Path(root)
        self.name = name
        self.dir = self.root / name
        self.points_dir = self.dir / "points"

    # ------------------------------------------------------------- spec --

    @property
    def spec_path(self) -> Path:
        return self.dir / "spec.json"

    def save_spec(self, spec: CampaignSpec) -> None:
        """Persist the spec document; reject conflicts with an existing one.

        A campaign directory is bound to exactly one spec: resubmitting the
        identical document is a no-op, a different one is an error (use a
        new campaign name instead of silently reinterpreting old results).

        The binding is race-free for concurrent submitters: the document is
        *claimed* onto ``spec.json`` (:func:`_claim_file`) — exactly one
        writer creates the file, every loser observes the winner's complete
        document and either agrees (no-op) or gets :class:`StoreError`.
        The old check-then-write sequence let two submitters with different
        specs both believe they had bound the campaign.

        A newly bound campaign also gets its empty leaderboard index (see
        :meth:`_ensure_index`).
        """
        document = dict(spec.raw) if spec.raw else {"name": spec.name}
        serialized = json.dumps(document, sort_keys=True, indent=1) + "\n"
        self.dir.mkdir(parents=True, exist_ok=True)
        if _claim_file(self.spec_path, serialized):
            self._ensure_index()
            return
        existing = _read_json(self.spec_path)
        if canonical_json(existing) != canonical_json(document):
            raise StoreError(
                f"campaign {self.name!r} at {self.dir} already has a "
                "different spec; pick a new campaign name"
            )

    def load_spec(self) -> CampaignSpec:
        """Load and re-validate the persisted spec."""
        if not self.spec_path.exists():
            raise StoreError(f"no campaign named {self.name!r} under {self.root}")
        return load_spec(_read_json(self.spec_path))

    # ------------------------------------------------------ point paths --

    def point_dir(self, digest: str) -> Path:
        return self.points_dir / digest

    def graph_path(self, digest: str) -> Path:
        return self.point_dir(digest) / _GRAPH_FILE

    # ---------------------------------------------------------- results --

    def has_result(self, digest: str) -> bool:
        return (self.point_dir(digest) / _RESULT_FILE).exists()

    def save_result(self, digest: str, point: dict[str, Any], solution: Any) -> None:
        """Persist a solved point: graph artifact, solution JSON, point spec.

        ORP solutions write their graph first and ``result.json`` last, so
        a result file's existence certifies the whole artifact set;
        resilience sweep results are a single JSON document (the swept
        graph is reproducible from the point's ``graph_seed``), and so are
        compose results (the fabric is reproducible from the memoized
        block digest plus the copy count).  The now-obsolete checkpoint is
        dropped afterwards.

        Solved plain-ORP points additionally publish one leaderboard
        record to ``index.jsonl`` — strictly after their artifacts are
        complete, so an index entry always points at a whole artifact set.
        """
        # Imported lazily: repro.compose builds on this store, so a
        # module-level import would be circular.
        from repro.compose.fabric import ComposeResult

        self._ensure_index()
        pdir = self.point_dir(digest)
        if isinstance(solution, (ResilienceSweepResult, ComposeResult)):
            _atomic_write_json(pdir / _POINT_FILE, point)
            _atomic_write_json(pdir / _RESULT_FILE, solution.to_dict())
        else:
            _atomic_write_text(pdir / _GRAPH_FILE, graph_to_text(solution.graph))
            _atomic_write_json(pdir / _POINT_FILE, point)
            _atomic_write_json(pdir / _RESULT_FILE, orp_solution_to_dict(solution))
            if isinstance(point, dict) and "kind" not in point:
                self._index_publish(
                    IndexEntry(
                        digest=digest,
                        n=int(point["n"]),
                        r=int(point["r"]),
                        h_aspl=float(solution.h_aspl),
                    )
                )
        self.clear_checkpoint(digest)
        self.clear_failure(digest)

    def load_result(self, digest: str) -> Any:
        """Rebuild the stored result, dispatching on its ``format`` field.

        Returns an :class:`~repro.core.solver.ORPSolution`, a
        :class:`~repro.analysis.resilience.ResilienceSweepResult`, or a
        :class:`~repro.compose.fabric.ComposeResult`.
        """
        from repro.compose.fabric import COMPOSE_RESULT_FORMAT, ComposeResult

        document = _read_json(self.point_dir(digest) / _RESULT_FILE)
        if isinstance(document, dict) and document.get("format") == RESILIENCE_RESULT_FORMAT:
            return ResilienceSweepResult.from_dict(document)
        if isinstance(document, dict) and document.get("format") == COMPOSE_RESULT_FORMAT:
            return ComposeResult.from_dict(document)
        return orp_solution_from_dict(document)

    def load_point(self, digest: str) -> dict[str, Any]:
        return _read_json(self.point_dir(digest) / _POINT_FILE)

    # ------------------------------------------------------------ index --

    @property
    def index_path(self) -> Path:
        return self.dir / INDEX_FILE

    def has_index(self) -> bool:
        return self.index_path.exists()

    def index_entries(self) -> list[IndexEntry]:
        """All leaderboard records (complete lines only, foreign ones skipped)."""
        try:
            data = self.index_path.read_bytes()
        except OSError:
            return []
        return _decode_index(data)

    def _ensure_index(self) -> None:
        """Create the empty index of a store that holds no point yet.

        Every store created from now on thus holds its index before its
        first point, so every publish is an ``O_APPEND`` and concurrent
        first writers never race through :meth:`rebuild_index` (which
        could publish an index missing a point).  Each writer runs this
        before it creates ``points/``, so a points directory without an
        index marks a legacy store; that one is left alone and its first
        publish migrates it.
        """
        if self.has_index() or self.points_dir.exists():
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            os.close(os.open(self.index_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass

    def _index_publish(self, entry: IndexEntry) -> None:
        """Append one record; the first write into a legacy store migrates.

        The append is a single ``O_APPEND`` write (atomic between
        concurrent pool workers).  A store that predates the index but
        already holds points gets its index from one full scan here
        instead of a bare append — an index missing older entries would
        serve wrong leaders, which is worse than one migration scan at
        *write* time.  Concurrent first writers each scan, and the scan is
        claimed onto the index atomically (:func:`_claim_file`, as
        :meth:`save_spec` claims ``spec.json``); a writer that loses the
        claim appends its own record, which the winner's scan may have
        missed.  Replacing the file instead let the last writer's scan win
        and drop the points published meanwhile.
        """
        if not self.has_index():
            entries, _ = self._scan_index()
            if _claim_file(self.index_path, "".join(map(encode_entry, entries))):
                return
        data = encode_entry(entry).encode()
        fd = os.open(self.index_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def rebuild_index(self) -> IndexRebuildStats:
        """Regenerate ``index.jsonl`` from a full artifact scan.

        The **only** O(points) path left in the query story (explicit
        ``--rebuild-index`` in the CLI; the one-time legacy-store migration
        in :meth:`_index_publish` runs the same scan).  Corrupt or torn
        points are skipped and counted — a single bad artifact must never
        take down the whole leaderboard.  The new index is published
        atomically (temp + :func:`os.replace`), so concurrent readers see
        either the old or the new file, never a partial one.
        """
        entries, skipped = self._scan_index()
        _atomic_write_text(self.index_path, "".join(map(encode_entry, entries)))
        return IndexRebuildStats(
            entries=len(entries),
            skipped=len(skipped),
            skipped_digests=tuple(skipped),
        )

    def _scan_index(self) -> tuple[list[IndexEntry], list[str]]:
        """Index records of every solved plain-ORP point, and the digests
        of the unreadable points skipped (a full artifact scan)."""
        entries: list[IndexEntry] = []
        skipped: list[str] = []
        for digest in self.digests():
            pdir = self.point_dir(digest)
            if not (pdir / _RESULT_FILE).exists():
                continue
            point_path = pdir / _POINT_FILE
            if not point_path.exists():
                continue
            point = _read_json_opt(point_path)
            if point is None:
                skipped.append(digest)
                continue
            if not isinstance(point, dict) or "kind" in point:
                continue
            if not self.graph_path(digest).exists():
                continue
            document = _read_json_opt(pdir / _RESULT_FILE)
            if document is None:
                skipped.append(digest)
                continue
            h_aspl = document.get("h_aspl") if isinstance(document, dict) else None
            if not isinstance(h_aspl, (int, float)) or isinstance(h_aspl, bool):
                skipped.append(digest)
                continue
            if not isinstance(point.get("n"), int) or not isinstance(point.get("r"), int):
                skipped.append(digest)
                continue
            entries.append(
                IndexEntry(
                    digest=digest,
                    n=point["n"],
                    r=point["r"],
                    h_aspl=float(h_aspl),
                )
            )
        return entries, skipped

    def best_for(self, n: int, r: int) -> BestPoint | None:
        """Best known plain-ORP result for exactly ``(n, r)``, or ``None``.

        Answers from the leaderboard index in one small file read — **no
        point-directory scan** — which is what makes this usable as the
        compose subsystem's memoization hook and :mod:`repro.serve`'s
        query backend.  Candidates are walked best-first (lowest h-ASPL,
        ties to the lexicographically smallest digest, exactly the
        historical full-scan tie-break) and the first one whose artifacts
        still verify on disk wins, so a point deleted or corrupted behind
        the index falls through to the next-best instead of poisoning the
        query.  A store without an index (legacy, or no solved ORP points
        yet) answers ``None``; run ``rebuild_index`` (CLI
        ``--rebuild-index``) to migrate a legacy store.
        """
        for entry in best_candidates(self.index_entries(), n, r):
            verified = self.verify_entry(entry)
            if verified is not None:
                return verified
        return None

    def verify_entry(self, entry: IndexEntry) -> BestPoint | None:
        """Cheap artifact check for one index candidate (O(1) reads).

        ``None`` when the entry's artifacts no longer verify on disk —
        callers (``best_for``, the serve layer's warm caches) fall through
        to the next candidate.
        """
        graph = self.graph_path(entry.digest)
        if not graph.exists():
            return None
        point = _read_json_opt(self.point_dir(entry.digest) / _POINT_FILE)
        if not isinstance(point, dict) or "kind" in point:
            return None
        return BestPoint(
            digest=entry.digest,
            point=point,
            h_aspl=entry.h_aspl,
            graph_path=graph,
        )

    def best_for_scan(self, n: int, r: int) -> ScanBest:
        """Full-scan reference answer for ``(n, r)`` (slow path).

        Scans every stored point, keeps plain ORP points (resilience and
        compose artifacts carry a ``kind`` and are skipped) whose graph
        artifact is present, and returns the lowest h-ASPL among them —
        ties break to the lexicographically smallest digest.  Unreadable
        points are *skipped and counted* (``ScanBest.skipped``) instead of
        raising: one truncated ``point.json`` used to fail the whole query
        and every compose block resolution behind it.  The property suite
        holds :meth:`best_for` bit-identical to this answer.
        """
        best: BestPoint | None = None
        skipped = 0
        for digest in self.digests():
            pdir = self.point_dir(digest)
            if not (pdir / _RESULT_FILE).exists():
                continue
            point_path = pdir / _POINT_FILE
            if not point_path.exists():
                continue
            point = _read_json_opt(point_path)
            if point is None:
                skipped += 1
                continue
            if not isinstance(point, dict) or "kind" in point:
                continue
            if point.get("n") != n or point.get("r") != r:
                continue
            graph = self.graph_path(digest)
            if not graph.exists():
                continue
            document = _read_json_opt(pdir / _RESULT_FILE)
            if document is None:
                skipped += 1
                continue
            h_aspl = (
                document.get("h_aspl") if isinstance(document, dict) else None
            )
            if not isinstance(h_aspl, (int, float)) or isinstance(h_aspl, bool):
                continue
            if best is None or float(h_aspl) < best.h_aspl:
                best = BestPoint(
                    digest=digest,
                    point=point,
                    h_aspl=float(h_aspl),
                    graph_path=graph,
                )
        return ScanBest(best=best, skipped=skipped)

    def unreadable_points(self) -> list[str]:
        """Digests whose ``point.json``/``result.json`` exist but won't read.

        The corrupt artifacts a scan skips; ``repro campaign status``
        surfaces the count so silent tolerance never hides rot.
        """
        bad: list[str] = []
        for digest in self.digests():
            pdir = self.point_dir(digest)
            for artifact in (_POINT_FILE, _RESULT_FILE):
                path = pdir / artifact
                if path.exists() and _read_json_opt(path) is None:
                    bad.append(digest)
                    break
        return bad

    def result_graph_digest(self, digest: str) -> str:
        """SHA-256 of the stored graph artifact (for identity assertions)."""
        data = self.graph_path(digest).read_bytes()
        return hashlib.sha256(data).hexdigest()

    # ------------------------------------------------------ checkpoints --

    def has_checkpoint(self, digest: str) -> bool:
        return (self.point_dir(digest) / _CHECKPOINT_FILE).exists()

    def save_checkpoint(self, digest: str, state: dict[str, Any]) -> None:
        _atomic_write_json(self.point_dir(digest) / _CHECKPOINT_FILE, state)

    def load_checkpoint(self, digest: str) -> dict[str, Any] | None:
        """The point's checkpoint state, or ``None`` when there is none.

        Tolerates the file vanishing between the existence check and the
        read (``save_result`` clears checkpoints concurrently with
        monitoring readers) — a mid-write state, not an error.
        """
        path = self.point_dir(digest) / _CHECKPOINT_FILE
        if not path.exists():
            return None
        try:
            return _read_json(path)
        except StoreError:
            if not path.exists():
                return None
            raise

    def clear_checkpoint(self, digest: str) -> None:
        (self.point_dir(digest) / _CHECKPOINT_FILE).unlink(missing_ok=True)

    # ---------------------------------------------------------- failures --

    def has_failure(self, digest: str) -> bool:
        return (self.point_dir(digest) / _FAILURE_FILE).exists()

    def save_failure(self, digest: str, record: dict[str, Any]) -> None:
        """Record a failure artifact (point kept pending for future resume)."""
        _atomic_write_json(self.point_dir(digest) / _FAILURE_FILE, record)

    def load_failure(self, digest: str) -> dict[str, Any]:
        return _read_json(self.point_dir(digest) / _FAILURE_FILE)

    def clear_failure(self, digest: str) -> None:
        (self.point_dir(digest) / _FAILURE_FILE).unlink(missing_ok=True)

    # ------------------------------------------------------------ status --

    def digests(self) -> list[str]:
        """Digests with any *complete* on-disk artifact, sorted.

        Point directories holding nothing but ``*.tmp`` debris (a worker
        killed before its first :func:`os.replace`) are not points yet and
        are excluded — listing them would make every reader trip over
        files that may vanish mid-iteration.
        """
        if not self.points_dir.exists():
            return []
        names: list[str] = []
        for p in self.points_dir.iterdir():
            if not p.is_dir():
                continue
            try:
                has_artifact = any(
                    not child.name.endswith(".tmp") for child in p.iterdir()
                )
            except OSError:
                continue
            if has_artifact:
                names.append(p.name)
        return sorted(names)

    def point_state(self, digest: str) -> str:
        """One of :data:`POINT_STATES` for ``digest``."""
        if self.has_result(digest):
            return "solved"
        if self.has_failure(digest):
            return "failed"
        if self.has_checkpoint(digest):
            return "checkpointed"
        return "pending"
