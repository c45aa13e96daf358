"""Leaderboard index over the campaign store: best h-ASPL per ``(n, r)``.

The serving-side complement of :mod:`repro.campaign.store`.  The store's
``best_for`` used to be an O(points) directory scan that re-read every
``point.json``/``result.json`` per query; at serving scale (thousands of
stored points, many queries per second) that is the difference between an
artifact archive and a backend.  The index turns the query into one small
file read:

``<campaign>/index.jsonl`` holds one JSON record per *solved plain-ORP
point* — ``{"digest", "n", "r", "h_aspl"}`` — appended by
:meth:`CampaignStore.save_result` **after** the point's artifacts landed,
so an index entry certifies a complete artifact set.  The file is
append-only: each record is published with a single ``O_APPEND`` write
(atomic for concurrent pool workers well below ``PIPE_BUF``), so any
number of writers and readers interleave safely without locks.  Readers
decode complete (newline-terminated) lines only and skip foreign ones, so
a torn tail (a killed writer, a truncating copy) is read once it is
complete.

This module owns the *pure* side of the index — record encode/decode and
the one fold, :class:`Leaderboard`, that ranks the candidates per
``(n, r)`` with the store's historical tie-break (lowest h-ASPL, ties to
the lexicographically smallest digest, so answers stay deterministic and
bit-identical to a full scan).  A reader that folds the lines appended
since its last read gets the board a full decode would.  All file I/O
stays in ``store.py``, the campaign package's single write path
(repro-lint REP008).
"""

from __future__ import annotations

import json
from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

__all__ = [
    "INDEX_FILE",
    "IndexEntry",
    "IndexRebuildStats",
    "Leaderboard",
    "best_by_nr",
    "best_candidates",
    "decode_index_text",
    "encode_entry",
]

#: Index file name inside a campaign directory (``<campaign>/index.jsonl``).
INDEX_FILE = "index.jsonl"

_REQUIRED_KEYS = ("digest", "n", "r", "h_aspl")
_RANK = attrgetter("sort_key")


@dataclass(frozen=True)
class IndexEntry:
    """One leaderboard record: a solved plain-ORP point and its score."""

    digest: str
    n: int
    r: int
    h_aspl: float

    @property
    def sort_key(self) -> tuple[float, str]:
        """Lowest h-ASPL first; ties to the smallest digest (scan parity)."""
        return (self.h_aspl, self.digest)


@dataclass(frozen=True)
class IndexRebuildStats:
    """Outcome of a full-scan index rebuild (``--rebuild-index``)."""

    entries: int
    """Solved plain-ORP points now in the index."""
    skipped: int
    """Points whose artifacts were unreadable (corrupt/torn) and excluded."""
    skipped_digests: tuple[str, ...] = ()


def encode_entry(entry: IndexEntry) -> str:
    """One canonical JSON line (newline-terminated) for ``entry``.

    Floats round-trip exactly through :func:`json.dumps`/``loads``
    (``repr``-based), so the h-ASPL folded out of the index is
    bit-identical to the one inside ``result.json``.
    """
    record = {
        "digest": entry.digest,
        "n": entry.n,
        "r": entry.r,
        "h_aspl": entry.h_aspl,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def decode_index_text(text: str) -> list[IndexEntry]:
    """Decode an index file's complete lines, skipping foreign ones.

    Only newline-terminated lines count: every writer publishes a whole
    line in one write, so text after the last newline is a record still
    being written (or a torn one) and is left for a later read.  A
    long-running server reads the index while workers append to it;
    robustness beats strictness here, so a line that does not decode to a
    complete record is silently dropped (mid-write states must never
    raise).
    """
    entries: list[IndexEntry] = []
    for line in text.split("\n")[:-1]:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if any(key not in record for key in _REQUIRED_KEYS):
            continue
        digest, n, r, h_aspl = (record[key] for key in _REQUIRED_KEYS)
        if not isinstance(digest, str):
            continue
        if isinstance(n, bool) or isinstance(r, bool):
            continue
        if not isinstance(n, int) or not isinstance(r, int):
            continue
        if isinstance(h_aspl, bool) or not isinstance(h_aspl, (int, float)):
            continue
        entries.append(IndexEntry(digest=digest, n=n, r=r, h_aspl=float(h_aspl)))
    return entries


class Leaderboard:
    """Best-first candidates per ``(n, r)``, folded from index records.

    Records fold in file order: the last record for a digest wins (re-saves
    of a content-addressed point carry identical payloads, so "latest" is
    a formality, not a choice), and each key's candidates stay sorted by
    :attr:`IndexEntry.sort_key`.  Folding a file's records in one call or
    in any split of them gives the same board, so a reader can fold just
    the lines appended since its last read.
    """

    def __init__(self, entries: Iterable[IndexEntry] = ()) -> None:
        self._latest: dict[str, IndexEntry] = {}
        self._ranked: dict[tuple[int, int], list[IndexEntry]] = {}
        self.fold(entries)

    def fold(self, entries: Iterable[IndexEntry]) -> None:
        """Fold further records, in file order, into the board."""
        for entry in entries:
            old = self._latest.get(entry.digest)
            if old == entry:
                continue
            if old is not None:
                self._ranked[(old.n, old.r)].remove(old)
            self._latest[entry.digest] = entry
            insort(self._ranked.setdefault((entry.n, entry.r), []), entry, key=_RANK)

    def candidates(self, n: int, r: int) -> list[IndexEntry]:
        """A new list of the entries at exactly ``(n, r)``, best first."""
        return list(self._ranked.get((n, r), ()))

    def best(self) -> dict[tuple[int, int], IndexEntry]:
        """The best entry per ``(n, r)``."""
        return {key: ranked[0] for key, ranked in self._ranked.items() if ranked}


def best_candidates(entries: Iterable[IndexEntry], n: int, r: int) -> list[IndexEntry]:
    """Entries at exactly ``(n, r)``, best first (see :class:`Leaderboard`).

    Callers walk the list and take the first candidate whose artifacts
    still verify on disk, which keeps the answer identical to a full scan
    even when point directories were deleted behind the index's back.
    """
    return Leaderboard(entries).candidates(n, r)


def best_by_nr(entries: Iterable[IndexEntry]) -> dict[tuple[int, int], IndexEntry]:
    """The leaderboard itself: best entry per ``(n, r)`` over ``entries``."""
    return Leaderboard(entries).best()
