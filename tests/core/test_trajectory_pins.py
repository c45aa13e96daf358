"""Pinned annealing trajectories in the regime where the search rejects moves.

Each case anneals a random start graph at T 1e-3 -> 1e-6, where most
proposals are rejected, and pins ``(accepted, improved, sha256 of the
step-by-step history, sha256 of graph_to_text(best))`` (each digest cut to
16 hex digits).  The pins hold the
hot path to bit-identity: a change to the evaluator, the proposal draws or
the anneal loop that alters one accept decision, one value or one edge of
the result fails here.  The grid covers n from 128 to 1024 and all three
operations; one run resumes from a mid-run checkpoint (JSON round-tripped,
as the campaign store keeps it) and one solve fans two restarts out to a
process pool.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.annealing import AnnealingSchedule, anneal
from repro.core.construct import random_host_switch_graph
from repro.core.moore import optimal_switch_count
from repro.core.serialization import graph_to_text
from repro.core.solver import solve_orp

#: ``(n, r, steps)``: the switch count is the paper's ``m_opt``.
_SHAPES = {128: (10, 2000), 256: (12, 2000), 512: (14, 1500), 1024: (15, 1500)}
_COLD = {"initial_temperature": 1e-3, "final_temperature": 1e-6}
#: The n=512 two-neighbor-swing pins, which the resumed run must reach too.
_RESUMED = (410, 244, "ea85a26f9935f222", "1d313c181541ab86")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _start(n: int):
    r, _steps = _SHAPES[n]
    m, _ = optimal_switch_count(n, r)
    return random_host_switch_graph(n, m, r, seed=n)


def _schedule(n: int) -> AnnealingSchedule:
    return AnnealingSchedule(num_steps=_SHAPES[n][1], **_COLD)


def _pins(result) -> tuple[int, int, str, str]:
    return (result.accepted, result.improved, _sha(repr(result.history)),
            _sha(graph_to_text(result.graph)))


@pytest.mark.parametrize(
    "n,operation,pins",
    [
        (128, "swap", (46, 38, "fd86bc97fd0c4e0f", "b0a469816a356911")),
        (128, "swing", (73, 65, "f2e6100aba886eeb", "588daa546d46a0a0")),
        (128, "two-neighbor-swing", (64, 58, "ec2a96652b1c2e29", "3fa0f530e392250c")),
        (256, "swap", (120, 96, "82d1d98bc5086952", "b1a711cb635c3cda")),
        (256, "swing", (188, 146, "7373e23283e51ee0", "5f9a0f16cddc2b8a")),
        (256, "two-neighbor-swing", (217, 163, "e5d1fbf8780cca67", "04986ab80f1f45ab")),
        (512, "swap", (243, 147, "34fd6f095c9ddd7d", "128fe4d4b2649865")),
        (512, "swing", (334, 208, "1963a8642e2a949c", "49ab940111e56750")),
        (512, "two-neighbor-swing", _RESUMED),
        (1024, "swap", (441, 252, "b65d99759c8b5239", "9a1d709a1d2a46be")),
        (1024, "swing", (498, 255, "ac586eb6a03b7001", "9171ba909da5229c")),
        (1024, "two-neighbor-swing", (615, 306, "1bacf3bbc1778a1c", "9c256a650efd10a3")),
    ],
)
def test_cold_trajectory_is_pinned(n, operation, pins):
    result = anneal(_start(n), operation=operation, schedule=_schedule(n), seed=1,
                    history_every=1)
    assert _pins(result) == pins


def test_resumed_run_keeps_the_pinned_trajectory():
    """Stop at the midpoint checkpoint, resume from its JSON, land on the pins."""
    n, operation = 512, "two-neighbor-swing"
    steps = _SHAPES[n][1]
    saved: list[str] = []
    kwargs = {"operation": operation, "schedule": _schedule(n), "seed": 1,
              "history_every": 1}
    anneal(_start(n), checkpoint_every=steps // 2,
           checkpoint_callback=lambda state: saved.append(json.dumps(state)), **kwargs)
    assert len(saved) == 2
    resumed = anneal(_start(n), resume_state=json.loads(saved[0]), **kwargs)
    assert _pins(resumed) == _RESUMED


def test_pool_solve_is_pinned():
    """Two restarts on two worker processes: the best graph and each restart."""
    solution = solve_orp(256, 12, schedule=_schedule(256), restarts=2, jobs=2, seed=3)
    summary = [(s.accepted, repr(s.h_aspl)) for s in solution.restarts]
    assert summary == [(191, "4.032475490196078"), (186, "4.036182598039216")]
    assert _sha(graph_to_text(solution.graph)) == "eaaf8d748d84fbca"
