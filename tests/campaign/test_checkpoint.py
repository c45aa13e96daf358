"""Bit-identical kill/resume: annealer checkpoints and the point checkpointer.

Determinism contract: a resumed run must match the uninterrupted one on the
graph, h-ASPL, and every accounting field.  ``wall_time_s`` is wall-clock
and therefore excluded from all identity assertions.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.campaign.checkpoint import CampaignInterrupted, PointCheckpointer
from repro.campaign.spec import normalize_point, point_digest
from repro.campaign.store import CampaignStore
from repro.core.annealing import (
    ANNEAL_CHECKPOINT_FORMAT,
    AnnealingSchedule,
    anneal,
)
from repro.core.construct import random_host_switch_graph
from repro.core.solver import solve_orp
from tests.conftest import checked_anneal

SCHEDULE = AnnealingSchedule(num_steps=400)
SEED = 7


@pytest.fixture(scope="module")
def start_graph():
    return random_host_switch_graph(24, 8, 6, seed=3)


def strip_wall(record) -> dict:
    data = asdict(record)
    data.pop("wall_time_s")
    data.pop("graph", None)
    return data


class _StopAfter(Exception):
    pass


def run_killed_then_resumed(graph, kill_at: int, *, run=anneal):
    """Anneal, abort at the ``kill_at``-th checkpoint, resume, return result.

    ``run`` is the annealer entry point used for both segments.
    """
    saved: list[dict] = []

    def callback(state: dict) -> None:
        saved.append(state)
        if len(saved) >= kill_at:
            raise _StopAfter()

    with pytest.raises(_StopAfter):
        run(
            graph, schedule=SCHEDULE, seed=SEED, history_every=50,
            checkpoint_every=100, checkpoint_callback=callback,
        )
    # The checkpoint must survive a JSON round trip (that is how the store
    # persists it across the kill).
    state = json.loads(json.dumps(saved[-1]))
    assert state["format"] == ANNEAL_CHECKPOINT_FORMAT
    assert state["step"] == kill_at * 100
    return run(
        graph, schedule=SCHEDULE, seed=SEED, history_every=50, resume_state=state,
    )


class TestAnnealResume:
    @pytest.fixture(scope="class")
    def reference(self, start_graph):
        return anneal(start_graph, schedule=SCHEDULE, seed=SEED, history_every=50)

    @pytest.mark.parametrize("kill_at", [1, 3])
    def test_resume_is_bit_identical(self, start_graph, reference, kill_at):
        resumed = run_killed_then_resumed(start_graph, kill_at)
        assert resumed.graph == reference.graph
        assert resumed.h_aspl == reference.h_aspl
        assert resumed.history == reference.history
        assert strip_wall(resumed) == strip_wall(reference)

    def test_resume_under_checked_evaluator(self, start_graph, reference):
        resumed = run_killed_then_resumed(start_graph, 2, run=checked_anneal)
        assert resumed.graph == reference.graph
        assert strip_wall(resumed) == strip_wall(reference)

    def test_wall_time_accumulates_across_segments(self, start_graph):
        resumed = run_killed_then_resumed(start_graph, 2)
        assert resumed.wall_time_s > 0

    def test_checkpoint_callback_receives_every_boundary(self, start_graph):
        saved: list[int] = []
        anneal(
            start_graph, schedule=SCHEDULE, seed=SEED, checkpoint_every=100,
            checkpoint_callback=lambda s: saved.append(s["step"]),
        )
        assert saved == [100, 200, 300, 400]

    def test_no_callback_means_no_checkpoint_overhead_path(self, start_graph):
        # checkpoint_every without a callback is simply inert.
        result = anneal(start_graph, schedule=SCHEDULE, seed=SEED,
                        checkpoint_every=100)
        plain = anneal(start_graph, schedule=SCHEDULE, seed=SEED)
        assert result.graph == plain.graph
        assert strip_wall(result) == strip_wall(plain)


class TestResumeValidation:
    def checkpoint(self, start_graph) -> dict:
        saved: list[dict] = []
        anneal(
            start_graph, schedule=SCHEDULE, seed=SEED, checkpoint_every=200,
            checkpoint_callback=lambda s: saved.append(s),
        )
        return saved[0]

    def test_wrong_format_tag(self, start_graph):
        state = dict(self.checkpoint(start_graph), format="not-a-checkpoint")
        with pytest.raises(ValueError, match="format"):
            anneal(start_graph, schedule=SCHEDULE, seed=SEED, resume_state=state)

    def test_wrong_operation(self, start_graph):
        state = self.checkpoint(start_graph)
        with pytest.raises(ValueError, match="operation"):
            anneal(start_graph, schedule=SCHEDULE, seed=SEED,
                   operation="swap", resume_state=state)

    def test_wrong_schedule_length(self, start_graph):
        state = self.checkpoint(start_graph)
        with pytest.raises(ValueError, match="num_steps"):
            anneal(start_graph, schedule=AnnealingSchedule(num_steps=999),
                   seed=SEED, resume_state=state)

    def test_negative_checkpoint_every_rejected(self, start_graph):
        with pytest.raises(ValueError, match="checkpoint_every"):
            anneal(start_graph, schedule=SCHEDULE, seed=SEED,
                   checkpoint_every=-1)


POINT = normalize_point({"n": 24, "r": 6, "steps": 300, "restarts": 3})
DIGEST = point_digest(POINT)


def solve_point(checkpointer=None):
    return solve_orp(
        POINT["n"], POINT["r"],
        schedule=AnnealingSchedule(num_steps=POINT["steps"]),
        restarts=POINT["restarts"], seed=POINT["seed"],
        checkpointer=checkpointer,
    )


class TestPointCheckpointer:
    def test_interrupt_and_resume_across_restarts(self, tmp_path):
        reference = solve_point()
        store = CampaignStore(tmp_path, "unit")

        # Kill at the 5th checkpoint: restart 0 (3 checkpoints at
        # steps 100/200/300) completes, restart 1 dies mid-flight.
        ticks = [0]

        def hook() -> None:
            ticks[0] += 1
            if ticks[0] >= 5:
                raise CampaignInterrupted("drain")

        cp = PointCheckpointer(store, DIGEST, 100, on_checkpoint=hook)
        with pytest.raises(CampaignInterrupted):
            solve_point(cp)
        assert store.has_checkpoint(DIGEST)

        # Resume with a fresh checkpointer read back from the store.
        cp2 = PointCheckpointer(store, DIGEST, 100)
        assert cp2.completed_restarts == [0]
        assert cp2.resume_state(1) is not None
        assert cp2.resume_state(2) is None
        resumed = solve_point(cp2)

        assert resumed.graph == reference.graph
        assert resumed.h_aspl == reference.h_aspl
        assert [strip_wall(s) for s in resumed.restarts] == [
            strip_wall(s) for s in reference.restarts
        ]
        assert strip_wall(resumed.annealing) == strip_wall(reference.annealing)

    def test_completed_restarts_served_without_reannealing(self, tmp_path):
        store = CampaignStore(tmp_path, "unit")
        cp = PointCheckpointer(store, DIGEST, 100)
        solve_point(cp)
        # All restarts completed: a re-solve touches only the cache.
        cp2 = PointCheckpointer(store, DIGEST, 100)
        assert cp2.completed_restarts == [0, 1, 2]
        calls = {"saved": 0}
        cp2._on_checkpoint = lambda: calls.__setitem__("saved", calls["saved"] + 1)
        again = solve_point(cp2)
        assert calls["saved"] == 0  # zero annealer checkpoints => zero work
        assert again.h_aspl == solve_point().h_aspl

    def test_checkpointer_requires_serial_jobs(self, tmp_path):
        cp = PointCheckpointer(CampaignStore(tmp_path, "unit"), DIGEST, 100)
        with pytest.raises(ValueError, match="jobs=1"):
            solve_orp(
                POINT["n"], POINT["r"],
                schedule=AnnealingSchedule(num_steps=100),
                restarts=2, jobs=2, seed=0, checkpointer=cp,
            )

    def test_bad_checkpoint_every(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            PointCheckpointer(CampaignStore(tmp_path, "unit"), DIGEST, 0)

    def test_unsupported_persisted_format(self, tmp_path):
        store = CampaignStore(tmp_path, "unit")
        store.save_checkpoint(DIGEST, {"format": "someone-else/v9"})
        with pytest.raises(ValueError, match="unsupported format"):
            PointCheckpointer(store, DIGEST, 100)
