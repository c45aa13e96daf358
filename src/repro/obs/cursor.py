"""A byte cursor over an append-only line file.

Two long-lived readers follow a file another process appends to: each
serve shard reads its store's ``index.jsonl``
(:class:`repro.campaign.store.IndexCursor`) and ``repro monitor`` tails a
``--telemetry-out`` trace (:class:`repro.obs.progress.TraceTailer`).
Both read through :class:`LineCursor`, which lives here, below
:mod:`repro.campaign`, so the telemetry layer can use it without an import
cycle.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO

__all__ = ["LineCursor"]


class LineCursor:
    """A reader's byte position in one append-only line file.

    :meth:`read` returns only the complete lines appended since the
    previous read; it never consumes past the last newline, so a torn tail
    is read once it is complete.  It reads the whole file again when the
    file changed under it: a new inode (a replace, a delete and
    re-create), a size below the one it last saw (a truncation), a changed
    mtime at an unchanged size (a same-size rewrite), or the last consumed
    line no longer at its offset (a rewrite that grew, such as a writer
    reopening the file with ``"w"`` and writing past the old end).  The
    cursor keeps the file open, which pins its inode: a re-created file
    cannot reuse the number.  Not thread-safe; :meth:`close` releases the
    file.
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

    def read(self) -> tuple[bool, bytes]:
        """``(full, data)``: the complete lines not consumed yet.

        ``full`` means ``data`` is the whole current file and replaces
        everything read before; a missing file reads as empty.
        """
        had_file = self._file is not None
        try:
            stat = os.stat(self.path)
        except OSError:
            # Missing: no open to try, and one full (empty) read if it was
            # deleted while open.
            self.close()
            return had_file, b""
        if self._file is None or (stat.st_dev, stat.st_ino) != self._stamp[:2]:
            self.close()
            try:
                self._file = open(self.path, "rb", buffering=0)
            except OSError:
                return had_file, b""
            stat = os.fstat(self._file.fileno())
        elif (stat.st_size, stat.st_mtime_ns) == self._stamp[2:]:
            return False, b""
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

    def _consume(self, stat: os.stat_result, data: bytes) -> bytes:
        """The complete lines of ``data``, the bytes from the offset."""
        self._stamp = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
        end = data.rfind(b"\n") + 1
        if end == 0:
            return b""
        self._offset += end
        self._last = data[data.rfind(b"\n", 0, end - 1) + 1 : end]
        return data[:end]
