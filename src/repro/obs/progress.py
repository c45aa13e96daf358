"""Live run monitoring: tail a telemetry trace or watch a campaign store.

Two complementary sources power ``repro monitor PATH``:

- **JSONL traces** (``--telemetry-out`` files).  :class:`TraceTailer`
  reads newly appended lines through the byte cursor the serve shards
  use (:class:`repro.obs.cursor.LineCursor`) — a torn last line waits
  until it is complete, and a trace a new run rewrote in place is read
  again from the top — and :class:`ProgressAggregator` folds the records
  into rolling aggregates:
  annealing step/acceptance/proposals-per-second from
  ``anneal.heartbeat``/``anneal.phase``, restart completion and the best
  h-ASPL per ``(n, r)`` from ``solver.restart``, point counts from
  ``campaign.progress``, and dropped-event warnings from
  ``obs.events_dropped``.
- **Campaign store directories**.  :class:`StoreProgress` rescans the
  content-addressed store on every refresh: per-state point counts, the
  best solved h-ASPL per ``(n, r)``, and — for checkpointed points — the
  active restart's step fraction plus an ETA extrapolated from the
  checkpoint cadence (steps per wall-second recorded in the snapshot).

:func:`monitor` renders either source as a refreshing terminal dashboard;
``once=True`` emits a single snapshot (the CI / scripting mode).

A serial solve or campaign writes every record to the trace as it
happens.  Pool workers (``solve_orp(jobs=)``, ``run_campaign(jobs=)``)
buffer theirs until the parent merges them when the pool is done, so
during a parallel run the trace carries only the parent's
``campaign.progress`` / ``campaign.heartbeat`` stream; the store view fills
that gap because checkpoints land continuously.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.cursor import LineCursor

__all__ = ["TraceTailer", "ProgressAggregator", "StoreProgress", "monitor"]

_CLEAR = "\x1b[2J\x1b[H"


class TraceTailer:
    """Incremental reader for a growing ``repro.obs/v1`` JSONL file.

    Each :meth:`poll` returns the records of the complete lines appended
    since the previous call.  A new run reopens the sink with ``"w"``,
    which keeps the inode: when the cursor finds the file rewritten under
    it (shrunk, or grown past the old end with other content), the tailer
    reads it again from the top and sets :attr:`restarted` for that poll
    (the records it returns are the new run's, from its first line) and
    :attr:`truncated` for good.  :meth:`close` releases the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.invalid_lines = 0
        self.restarted = False
        self.truncated = False
        self._cursor = LineCursor(self.path)
        self._opened = False

    def poll(self) -> list[dict[str, Any]]:
        """Newly appended schema-shaped records (malformed lines counted)."""
        full, data = self._cursor.read()
        # The first full read opens the file; any later one restarts it.
        self.restarted = full and self._opened
        self.truncated = self.truncated or self.restarted
        self._opened = self._opened or full
        records: list[dict[str, Any]] = []
        for line in data.decode("utf-8", errors="replace").split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                self.invalid_lines += 1
                continue
            if isinstance(obj, dict) and "kind" in obj and "name" in obj:
                records.append(obj)
            else:
                self.invalid_lines += 1
        return records

    def close(self) -> None:
        self._cursor.close()


class ProgressAggregator:
    """Rolling aggregates over a (possibly still growing) record stream."""

    def __init__(self) -> None:
        self.records = 0
        self.events_dropped = 0
        self.last_heartbeat: dict[str, Any] | None = None
        self.last_phase: dict[str, Any] | None = None
        self.last_solver: dict[str, Any] | None = None
        self.last_campaign: dict[str, Any] | None = None
        self.campaign_heartbeats = 0
        self.best_by_nr: dict[tuple[int, int], float] = {}

    def update(self, records: list[dict[str, Any]]) -> None:
        for rec in records:
            self.records += 1
            kind, name = rec.get("kind"), rec.get("name")
            fields = rec.get("fields") or {}
            if kind == "counter" and name == "obs.events_dropped":
                self.events_dropped = int(rec.get("value", 0))
            elif kind != "event":
                continue
            elif name == "anneal.heartbeat":
                self.last_heartbeat = fields
            elif name == "anneal.phase":
                self.last_phase = fields
            elif name == "solver.restart":
                self.last_solver = fields
                self._note_best(fields, "best_h_aspl")
            elif name == "solver.done":
                self._note_best(fields, "best_h_aspl")
            elif name == "campaign.progress":
                self.last_campaign = fields
            elif name == "campaign.heartbeat":
                self.campaign_heartbeats += 1

    def _note_best(self, fields: dict[str, Any], key: str) -> None:
        n, r, best = fields.get("n"), fields.get("r"), fields.get(key)
        if n is None or r is None or best is None:
            return
        nr = (int(n), int(r))
        if nr not in self.best_by_nr or best < self.best_by_nr[nr]:
            self.best_by_nr[nr] = float(best)

    def render(self) -> str:
        """The dashboard body for the trace view."""
        lines = [f"records seen: {self.records}"]
        if self.events_dropped:
            lines.append(
                f"WARNING: {self.events_dropped} event(s) dropped "
                "(buffer overflow) — aggregates may undercount"
            )
        hb = self.last_heartbeat
        if hb is not None:
            step, total = hb.get("step", 0), hb.get("num_steps", 0)
            pct = 100.0 * step / total if total else 0.0
            lines.append(
                f"anneal: step {step}/{total} ({pct:.0f}%), "
                f"best {hb.get('best', float('nan')):.4f}, "
                f"ETA {_fmt_eta(hb.get('eta_s'))}"
            )
        ph = self.last_phase
        if ph is not None:
            lines.append(
                f"phase: acceptance {ph.get('acceptance_rate', 0.0):.3f}, "
                f"{ph.get('proposals_per_sec', 0.0):.0f} proposals/s"
            )
        sv = self.last_solver
        if sv is not None:
            lines.append(
                f"solver: restart {sv.get('index', -1) + 1}/{sv.get('restarts', '?')} "
                f"done, best h-ASPL {sv.get('best_h_aspl', float('nan')):.4f}"
            )
        cp = self.last_campaign
        if cp is not None:
            lines.append(
                "campaign: "
                f"{cp.get('done', 0)}/{cp.get('points', '?')} points done "
                f"({cp.get('solved', 0)} solved, {cp.get('cached', 0)} cached, "
                f"{cp.get('failed', 0)} failed, {cp.get('retried', 0)} retried)"
            )
        if self.campaign_heartbeats:
            lines.append(
                f"checkpoints: {self.campaign_heartbeats} heartbeat(s) observed"
            )
        for (n, r), best in sorted(self.best_by_nr.items()):
            lines.append(f"best h-ASPL (n={n}, r={r}): {best:.4f}")
        if len(lines) == 1:
            lines.append("(no progress events yet — run may still be warming up)")
        return "\n".join(lines)


def _fmt_eta(eta_s: Any) -> str:
    if eta_s is None or not eta_s >= 0:
        return "?"
    eta = int(eta_s)
    if eta >= 3600:
        return f"{eta // 3600}h{(eta % 3600) // 60:02d}m"
    if eta >= 60:
        return f"{eta // 60}m{eta % 60:02d}s"
    return f"{eta}s"


class StoreProgress:
    """Snapshot view over one campaign store directory (or a store root).

    ``path`` may point at a single campaign directory (containing
    ``spec.json``) or at a store root whose subdirectories are campaigns.
    Every :meth:`snapshot` call rescans the directory — the store's atomic
    writes guarantee each artifact reads back whole, so a snapshot taken
    mid-run is simply the state as of the latest persisted checkpoint.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if (self.path / "spec.json").exists():
            self.root = self.path.parent
            self.names = [self.path.name]
        else:
            self.names = sorted(
                p.name for p in self.path.iterdir()
                if p.is_dir() and (p / "spec.json").exists()
            ) if self.path.is_dir() else []
            self.root = self.path
        if not self.names:
            raise FileNotFoundError(
                f"{path}: not a campaign directory (no spec.json here or in "
                "any subdirectory)"
            )

    def snapshot(self) -> str:
        from repro.campaign.spec import point_digest
        from repro.campaign.store import CampaignStore

        sections: list[str] = []
        for name in self.names:
            store = CampaignStore(self.root, name)
            try:
                spec = store.load_spec()
                points = {point_digest(p): p for p in spec.points}
            except Exception:  # spec may predate the current schema
                points = {}
            sections.append(self._campaign_section(store, name, points))
        return "\n\n".join(sections)

    def _campaign_section(
        self, store: Any, name: str, points: dict[str, dict[str, Any]]
    ) -> str:
        from repro.campaign.index import best_by_nr as index_best_by_nr
        from repro.campaign.store import StoreError

        counts = {"solved": 0, "failed": 0, "checkpointed": 0, "pending": 0}
        retried = 0
        # Plain-ORP bests come straight from the leaderboard index — one
        # small file read instead of re-loading every solved result on each
        # refresh.  Solved digests *not* in the index (kinded points such as
        # resilience/compose sweeps, or a legacy store without an index)
        # keep the per-artifact fallback below.
        entries = store.index_entries()
        best_by_nr: dict[tuple[int, int], float] = {
            nr: entry.h_aspl
            for nr, entry in index_best_by_nr(entries).items()
        }
        indexed_digests = {entry.digest for entry in entries}
        active_lines: list[str] = []
        digests = set(store.digests()) | set(points)
        for digest in sorted(digests):
            state = store.point_state(digest)
            counts[state] += 1
            point = points.get(digest)
            try:
                if state == "solved" and digest not in indexed_digests:
                    solution = store.load_result(digest)
                    if point is None:
                        point = store.load_point(digest)
                    h = getattr(solution, "h_aspl", None)
                    if h is not None and "n" in point and "r" in point:
                        nr = (int(point["n"]), int(point["r"]))
                        if nr not in best_by_nr or h < best_by_nr[nr]:
                            best_by_nr[nr] = float(h)
                elif state == "failed":
                    retried += max(0, int(store.load_failure(digest).get("attempts", 1)) - 1)
                elif state == "checkpointed":
                    active_lines.append(
                        self._checkpoint_line(digest, store.load_checkpoint(digest), point)
                    )
            except (StoreError, KeyError, TypeError, ValueError):
                continue  # torn or legacy artifact: keep the state count only
        total = len(digests)
        done = counts["solved"] + counts["failed"]
        lines = [
            f"campaign {name}: {done}/{total} points done "
            f"({counts['solved']} solved, {counts['failed']} failed, "
            f"{counts['checkpointed']} in progress, {counts['pending']} pending"
            + (f", {retried} retried" if retried else "") + ")"
        ]
        lines.extend(active_lines)
        for (n, r), best in sorted(best_by_nr.items()):
            lines.append(f"  best h-ASPL (n={n}, r={r}): {best:.4f}")
        return "\n".join(lines)

    @staticmethod
    def _checkpoint_line(
        digest: str,
        state: dict[str, Any] | None,
        point: dict[str, Any] | None,
    ) -> str:
        prefix = f"  in progress {digest[:12]}"
        if not state:
            return f"{prefix}: checkpoint unreadable"
        completed = len(state.get("completed") or {})
        restarts = int(point["restarts"]) if point and "restarts" in point else None
        parts = [f"{completed}/{restarts if restarts is not None else '?'} restarts done"]
        eta = 0.0
        have_eta = False
        for snap in (state.get("active") or {}).values():
            step = int(snap.get("step", 0))
            total = int(snap.get("num_steps", 0))
            wall = float(snap.get("wall_time_s", 0.0))
            if total:
                parts.append(f"active restart at step {step}/{total}")
            # ETA from the checkpoint cadence: steps per wall-second so far.
            if step > 0 and wall > 0 and total > step:
                eta += (total - step) / (step / wall)
                have_eta = True
                if restarts is not None and completed < restarts - 1:
                    # Remaining untouched restarts, assuming similar rate.
                    eta += (restarts - completed - 1) * total / (step / wall)
        if have_eta:
            parts.append(f"ETA {_fmt_eta(eta)}")
        return f"{prefix}: " + ", ".join(parts)


def monitor(
    path: str | Path,
    *,
    once: bool = False,
    interval: float = 2.0,
    cycles: int | None = None,
    stream: TextIO | None = None,
) -> str:
    """Render a live dashboard for ``path``; returns the final snapshot.

    ``path`` is either a JSONL trace file or a campaign store directory.
    ``once`` prints a single snapshot and returns (CI mode); otherwise the
    dashboard refreshes every ``interval`` seconds until ``cycles`` polls
    have run (forever when ``None``) or the user interrupts.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    target = Path(path)
    if target.is_dir():
        store_view: StoreProgress | None = StoreProgress(target)
        tailer, agg = None, None
    elif target.exists():
        store_view = None
        tailer, agg = TraceTailer(target), ProgressAggregator()
    else:
        raise FileNotFoundError(f"{path}: no such trace file or store directory")

    snapshot = ""
    polls = 0
    try:
        while True:
            if store_view is not None:
                snapshot = store_view.snapshot()
            else:
                assert tailer is not None and agg is not None
                records = tailer.poll()
                if tailer.restarted:
                    agg = ProgressAggregator()  # the old run's records are gone
                agg.update(records)
                header = [f"monitoring {target}"]
                if tailer.truncated:
                    header.append("(file truncated — a new run restarted the trace)")
                if tailer.invalid_lines:
                    header.append(f"({tailer.invalid_lines} unparseable line(s) skipped)")
                snapshot = "\n".join(header) + "\n" + agg.render()
            polls += 1
            if once or (cycles is not None and polls >= cycles):
                print(snapshot, file=out)
                break
            print(_CLEAR + snapshot, file=out, flush=True)
            time.sleep(interval)
    except KeyboardInterrupt:
        print("", file=out)
    finally:
        if tailer is not None:
            tailer.close()
    return snapshot
