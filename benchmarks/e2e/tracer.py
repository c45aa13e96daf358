"""Outside-in span tracer for the end-to-end benchmark's traced run.

The tracer never edits the program: it replaces a named public function
or method *where its caller looks it up* (a function imported by name into
``repro.core.annealing`` is patched in that module's namespace; methods
are patched on their class) with a wrapper that records one span per call.

Spans live in memory only.  Each thread keeps its own stack of open
frames; when a frame closes, its inclusive time is charged to its parent's
child time, and the ``(phase, layer, parent)`` row accumulates

- ``calls``   — completed spans,
- ``incl_s``  — inclusive seconds,
- ``self_s``  — inclusive minus the time covered by child spans,
- ``units``   — an optional per-call work amount (e.g. BFS sources).

Self times telescope: over every row under a root span, they sum to the
root's inclusive time, which is what lets a traced run show where its
wall time went.  Nothing is recorded outside an open :meth:`Tracer.phase`
(so the benchmark's own output checks stay out of the numbers) unless a
``default_phase`` is given: a server process traces everything under it.
Counts go to per-thread tables, so the hottest counted call pays no lock.

Async methods are traced with an async wrapper whose frame stays open
across ``await``.  That is exact only while one request at a time runs on
the event loop — true for the benchmark's single-client load generator.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

__all__ = ["Tracer", "merge_rows"]

ROOT_PARENT = "-"


class Tracer:
    """In-memory span aggregation keyed by ``(phase, layer, parent)``.

    Counters and kept objects are grouped by phase the same way.
    """

    def __init__(
        self,
        *,
        default_phase: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.default_phase = default_phase
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.rows: dict[tuple[str, str, str], list[float]] = {}
        self._count_tables: list[dict[tuple[str, str], float]] = []
        self.objects: dict[str, dict[str, list[Any]]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans --

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _phase(self) -> str | None:
        return getattr(self._local, "phase", None) or self.default_phase

    def active(self) -> bool:
        return self._phase() is not None

    def _counts(self) -> dict[tuple[str, str], float]:
        table = getattr(self._local, "counts", None)
        if table is None:
            table = self._local.counts = {}
            with self._lock:
                self._count_tables.append(table)
        return table

    def enter(self, name: str) -> list[Any]:
        frame = [name, self._clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list[Any], units: float = 0) -> None:
        end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
        incl = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += incl
        key = (self._phase(), frame[0], parent[0] if parent is not None else ROOT_PARENT)
        with self._lock:
            row = self.rows.get(key)
            if row is None:
                row = self.rows[key] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += incl
            row[2] += incl - frame[2]
            row[3] += units

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root span (``setup`` or ``run``) that turns recording on."""
        self._local.phase = name
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)
            self._local.phase = None

    def count(self, name: str, amount: float = 1) -> None:
        table = self._counts()
        key = (self._phase(), name)
        table[key] = table.get(key, 0) + amount

    @property
    def counters(self) -> dict[str, dict[str, float]]:
        """Counts summed over threads, as ``{phase: {name: total}}``."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            tables = [dict(t) for t in self._count_tables]
        for table in tables:
            for (phase, name), value in table.items():
                into = out.setdefault(phase, {})
                into[name] = into.get(name, 0) + value
        return out

    def keep(self, name: str, obj: Any) -> None:
        """Remember an object (e.g. an evaluator) to read its stats later."""
        phase = self._phase()
        with self._lock:
            self.objects.setdefault(phase, {}).setdefault(name, []).append(obj)

    # ---------------------------------------------------------- patching --

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        units: Callable[..., float] | None = None,
        on_return: Callable[[Tracer, Any, tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(fn):
            raise TypeError(f"{owner!r}.{attr} is not a plain callable")
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active():
                    return await fn(*args, **kwargs)
                frame = tracer.enter(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)

        else:

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active():
                    return fn(*args, **kwargs)
                frame = tracer.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame, units(*args, **kwargs) if units else 0)
                if on_return is not None:
                    on_return(tracer, result, args)
                return result

        self._patch(owner, attr, fn, wrapper)

    def wrap_count(self, owner: Any, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a call counter (no span, no clock)."""
        fn = getattr(owner, attr)
        local = self._local
        default = self.default_phase
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            phase = getattr(local, "phase", None) or default
            if phase is not None:
                table = getattr(local, "counts", None) or counts()
                key = (phase, counter)
                table[key] = table.get(key, 0) + 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- results --

    def row_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            items = sorted(self.rows.items())
        return [
            {
                "phase": phase,
                "layer": layer,
                "parent": parent,
                "calls": int(row[0]),
                "incl_s": row[1],
                "self_s": row[2],
                "units": row[3],
            }
            for (phase, layer, parent), row in items
        ]


def merge_rows(*row_lists: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Sum row dicts from several processes by ``(phase, layer, parent)``."""
    merged: dict[tuple[str, str, str], dict[str, Any]] = {}
    for rows in row_lists:
        for row in rows:
            key = (row["phase"], row["layer"], row["parent"])
            into = merged.setdefault(
                key,
                {"phase": key[0], "layer": key[1], "parent": key[2], "calls": 0,
                 "incl_s": 0.0, "self_s": 0.0, "units": 0},
            )
            for field in ("calls", "incl_s", "self_s", "units"):
                into[field] += row[field]
    return [merged[key] for key in sorted(merged)]
