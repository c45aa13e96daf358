"""Simulated-annealing search for the Order/Radix Problem (paper Section 5).

Three neighbourhood operations are available:

- ``"swap"`` — the degree-preserving 2-opt of Section 5.1.  Host edges are
  never touched, so a regular host-switch graph stays regular.
- ``"swing"`` — the host-moving rewiring of Section 5.2 used alone.
- ``"two-neighbor-swing"`` — the composite protocol of Fig. 4 (the paper's
  recommended operation): try a swing; if rejected, try the second swing
  that together with the first amounts to a swap.  Subsumes both primitives.

The annealer maintains a switch-edge list for O(1) proposal sampling and
scores every candidate by its exact h-ASPL with the delta-repairing
:class:`repro.core.incremental.IncrementalEvaluator` (propose / commit /
rollback around each move, and Fig. 4's retry as an ``extend`` of the
pending first swing), its only scorer.  The evaluator scores a move
from the move alone, so a proposal is applied to the working graph and
the edge list only once it is committed (:func:`_commit`, the loop's
one edit); a rejected proposal touches only the evaluator, which rolls
it back through its journal.  Moves that disconnect any pair of hosts
evaluate to ``inf`` and are always rejected.  A finite h-ASPL says
nothing about hostless switches, so every accepted move also passes a
whole-switch-graph connectivity check, preserving the paper's "no
redundant switch is stranded" assumption.  Between ``propose`` and
``commit`` the evaluator's matrix is the candidate's exact all-switch
APSP, so the check costs at most one row read
(:meth:`~repro.core.incremental.IncrementalEvaluator.is_connected`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.incremental import IncrementalEvaluator
from repro.core.metrics import h_aspl_and_diameter
from repro.core.operations import SwapMove, SwingMove, propose_swap, propose_swing
from repro.core.serialization import graph_from_text, graph_to_text
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock
from repro.utils.rng import as_generator

__all__ = [
    "ANNEAL_CHECKPOINT_FORMAT",
    "AnnealingSchedule",
    "AnnealingResult",
    "anneal",
]

#: Format tag carried by every checkpoint dict :func:`anneal` emits; resume
#: refuses dicts with a different tag so stale formats fail loudly.
ANNEAL_CHECKPOINT_FORMAT = "repro.anneal.checkpoint/v1"

_OPERATIONS = ("swap", "swing", "two-neighbor-swing")

#: Telemetry phase windows per run: acceptance rate / temperature /
#: proposals-per-second are reported once per window, so the trace stays a
#: few dozen events regardless of num_steps.
_TELEMETRY_PHASES = 10

#: Fixed buckets for the accepted-delta histogram (h-ASPL deltas are small
#: signed floats; the zero bound separates improving from worsening moves).
_DELTA_BOUNDS = (-1e-1, -1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2, 1e-1)

# Committed-move counters, keyed by move kind.  A literal dict (rather
# than an f-string) keeps every instrument name in the closed
# repro.obs.names.INSTRUMENTS registry (REP013).
_MOVE_COUNTERS = {
    "swap": "anneal.moves.swap",
    "swing": "anneal.moves.swing",
    "swing2": "anneal.moves.swing2",
}


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    Temperature at step ``t`` interpolates geometrically from
    ``initial_temperature`` down to ``final_temperature`` over
    ``num_steps`` proposals.
    """

    num_steps: int = 20_000
    initial_temperature: float = 0.05
    final_temperature: float = 1e-4

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if not 0 < self.final_temperature <= self.initial_temperature:
            raise ValueError(
                "need 0 < final_temperature <= initial_temperature, got "
                f"{self.final_temperature}, {self.initial_temperature}"
            )

    def temperature(self, step: int) -> float:
        """Temperature for proposal ``step`` (0-based)."""
        if self.num_steps == 1:
            return self.initial_temperature
        frac = step / (self.num_steps - 1)
        log_t = (1 - frac) * math.log(self.initial_temperature) + frac * math.log(
            self.final_temperature
        )
        return math.exp(log_t)


@dataclass
class AnnealingResult:
    """Outcome of an annealing run."""

    graph: HostSwitchGraph
    h_aspl: float
    diameter: float
    operation: str
    steps: int
    accepted: int
    improved: int
    initial_h_aspl: float
    history: list[tuple[int, float, float]] = field(default_factory=list)
    """Optional trace of ``(step, current_value, best_value)`` samples."""
    wall_time_s: float = 0.0
    """Wall-clock seconds of the search loop (always measured)."""


class _EdgeList:
    """Indexed switch-edge list supporting O(1) add/remove/sample."""

    def __init__(self, graph: HostSwitchGraph) -> None:
        self.edges: list[tuple[int, int]] = [tuple(sorted(e)) for e in graph.switch_edges()]
        self._pos = {e: i for i, e in enumerate(self.edges)}

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def add(self, a: int, b: int) -> None:
        key = self._key(a, b)
        self._pos[key] = len(self.edges)
        self.edges.append(key)

    def remove(self, a: int, b: int) -> None:
        key = self._key(a, b)
        idx = self._pos.pop(key)
        last = self.edges.pop()
        if last != key:
            self.edges[idx] = last
            self._pos[last] = idx

    def apply(self, move: SwapMove | SwingMove) -> None:
        """Replay a committed move's switch-edge changes, removals first."""
        removed, added = move.edge_changes()
        for a, b in removed:
            self.remove(a, b)
        for a, b in added:
            self.add(a, b)

    def restore_order(self, order: list[tuple[int, int]]) -> None:
        """Adopt a saved edge ordering (checkpoint resume).

        Proposal sampling indexes into :attr:`edges`, so bit-identical
        resume requires the *order* of the list — not just its contents —
        to match the checkpointed run.  The saved order must be a
        permutation of the current edge set.
        """
        saved = [self._key(a, b) for a, b in order]
        if sorted(saved) != sorted(self.edges):
            raise ValueError(
                "checkpointed edge order is not a permutation of the "
                "graph's switch edges"
            )
        self.edges = saved
        self._pos = {e: i for i, e in enumerate(saved)}


def _accept(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis criterion; ``inf`` deltas always reject."""
    if delta <= 0.0:
        return True
    if not math.isfinite(delta):
        return False
    return rng.random() < math.exp(-delta / temperature)


def anneal(
    graph: HostSwitchGraph,
    *,
    operation: str = "two-neighbor-swing",
    schedule: AnnealingSchedule | None = None,
    seed: int | np.random.Generator | None = 0,
    history_every: int = 0,
    target: float | None = None,
    telemetry: TelemetryRegistry | None = None,
    checkpoint_every: int = 0,
    checkpoint_callback: Callable[[dict[str, Any]], None] | None = None,
    resume_state: dict[str, Any] | None = None,
) -> AnnealingResult:
    """Minimise h-ASPL by simulated annealing.

    Parameters
    ----------
    graph:
        Starting host-switch graph; not mutated (a working copy is made).
    operation:
        ``"swap"``, ``"swing"``, or ``"two-neighbor-swing"`` (default; the
        paper's proposed operation).
    schedule:
        Cooling schedule; defaults to :class:`AnnealingSchedule`'s defaults.
    seed:
        RNG seed / generator for replayable runs.
    history_every:
        When > 0, record ``(step, current, best)`` every that many steps;
        the final step is always recorded so convergence plots end at the
        run's true terminal state.
    target:
        Optional early-stop threshold: stop once the best h-ASPL is within
        ``1e-12`` of it (e.g. the Theorem-2 lower bound).
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry` receiving per-phase
        acceptance/temperature/throughput events, the committed move-type
        mix, an accepted-delta histogram, and the evaluator's repair
        statistics.  ``None`` (the default) disables instrumentation; the
        inner loop then performs no telemetry work beyond one boolean
        check per step.
    checkpoint_every:
        When > 0 and ``checkpoint_callback`` is given, every that many
        steps the full search state — working and best graph, edge-list
        order, RNG bit-generator state, current/best values, accounting,
        history — is captured as a JSON-ready dict (format
        :data:`ANNEAL_CHECKPOINT_FORMAT`) and handed to the callback.
        The callback may raise to abort the search; the exception
        propagates and the last persisted checkpoint allows resume.
    checkpoint_callback:
        Receiver for checkpoint dicts (e.g. the campaign store's
        checkpointer).
    resume_state:
        A checkpoint dict from a previous (killed) run of the *same*
        search.  The run continues from the checkpointed step and is
        bit-identical to an uninterrupted run: the RNG stream, graph
        state, and proposal-sampling edge order are all restored exactly.
        ``graph`` is ignored when resuming (the checkpoint carries the
        working graph).

    Returns
    -------
    AnnealingResult
        Best graph found (validated), its h-ASPL and diameter, and search
        statistics.
    """
    if operation not in _OPERATIONS:
        raise ValueError(f"operation must be one of {_OPERATIONS}, got {operation!r}")
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = as_generator(seed)

    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    instrumented = tel.enabled
    run_t0 = obs_clock()

    start_step = 0
    wall_offset = 0.0
    if resume_state is not None:
        _validate_resume_state(resume_state, operation, schedule, rng)
        work = graph_from_text(resume_state["work_graph"])
        edges = _EdgeList(work)
        edges.restore_order([(int(a), int(b)) for a, b in resume_state["edge_order"]])
        rng.bit_generator.state = resume_state["rng_state"]
        start_step = int(resume_state["step"])
        wall_offset = float(resume_state["wall_time_s"])
    else:
        work = graph.copy()
        edges = _EdgeList(work)

    evaluator = IncrementalEvaluator(work, telemetry=tel)
    current = evaluator.value
    if not math.isfinite(current):
        raise ValueError("initial graph has disconnected hosts (h-ASPL is inf)")
    if resume_state is not None:
        # The evaluator was rebuilt from the restored graph; its value is
        # bit-identical to the checkpointed one (integer-valued distance
        # terms), so the restored `current` continues the exact trajectory.
        restored = float(resume_state["current"])
        if restored != current:  # repro-lint: disable=REP004 -- bit-identity is the resume contract
            raise ValueError(
                f"checkpoint is inconsistent with its graph: stored current "
                f"h-ASPL {restored!r} != recomputed {current!r}"
            )
        initial = float(resume_state["initial_h_aspl"])
        best = float(resume_state["best"])
        best_graph = graph_from_text(resume_state["best_graph"])
        accepted = int(resume_state["accepted"])
        improved = int(resume_state["improved"])
        history = [
            (int(s), float(c), float(b)) for s, c, b in resume_state["history"]
        ]
    else:
        initial = current
        best = current
        best_graph = work.copy()
        accepted = 0
        improved = 0
        history = []
    segment_accepted0, segment_improved0 = accepted, improved

    # Telemetry state lives entirely behind `instrumented`; the disabled
    # path touches none of it inside the loop (O(1) overhead guard).
    if instrumented:
        delta_hist = tel.histogram("anneal.delta_accepted", _DELTA_BOUNDS)
        phase_every = max(1, schedule.num_steps // _TELEMETRY_PHASES)
        phase_accepted = 0
        phase_start_step = start_step
        phase_t0 = run_t0
        move_counts = {"swap": 0, "swing": 0, "swing2": 0}

    def emit_phase(step_after: int, temperature: float) -> None:
        nonlocal phase_accepted, phase_start_step, phase_t0
        proposed = step_after - phase_start_step
        if proposed <= 0:
            return
        now_t = obs_clock()
        elapsed = now_t - phase_t0
        tel.event(
            "anneal.phase",
            step=step_after,
            temperature=temperature,
            proposed=proposed,
            accepted=phase_accepted,
            acceptance_rate=phase_accepted / proposed,
            proposals_per_sec=proposed / elapsed if elapsed > 0 else 0.0,
            current=current,
            best=best,
        )
        # Companion heartbeat with run-level progress: step fraction and an
        # ETA from the overall proposal rate (what `repro monitor` renders).
        run_elapsed = now_t - run_t0
        rate = (step_after - start_step) / run_elapsed if run_elapsed > 0 else 0.0
        tel.event(
            "anneal.heartbeat",
            step=step_after,
            num_steps=schedule.num_steps,
            best=best,
            current=current,
            accepted=accepted,
            elapsed_s=wall_offset + run_elapsed,
            eta_s=(schedule.num_steps - step_after) / rate if rate > 0 else None,
        )
        phase_accepted = 0
        phase_start_step = step_after
        phase_t0 = now_t

    def capture_checkpoint(step_after: int) -> dict[str, Any]:
        return {
            "format": ANNEAL_CHECKPOINT_FORMAT,
            "operation": operation,
            "num_steps": schedule.num_steps,
            "rng_kind": type(rng.bit_generator).__name__,
            "step": step_after,
            "rng_state": rng.bit_generator.state,
            "work_graph": graph_to_text(work),
            "best_graph": graph_to_text(best_graph),
            "edge_order": [list(e) for e in edges.edges],
            "current": current,
            "best": best,
            "initial_h_aspl": initial,
            "accepted": accepted,
            "improved": improved,
            "history": [list(h) for h in history],
            "wall_time_s": wall_offset + (obs_clock() - run_t0),
        }

    steps_done = start_step
    for step in range(start_step, schedule.num_steps):
        steps_done = step + 1
        temperature = schedule.temperature(step)

        if operation == "two-neighbor-swing":  # Fig. 4
            committed, value_after, move_kind = _two_neighbor_step(
                work, edges, rng, current, temperature, evaluator
            )
        else:
            committed, value_after, move_kind = False, current, operation
            # Looked up in the module at call time, so wrappers installed on
            # its propose_swap/propose_swing attributes see every call.
            propose = propose_swap if operation == "swap" else propose_swing
            move = propose(edges.edges, rng, work)
            if move is not None:
                committed, value_after = _try_move(
                    work, edges, rng, current, temperature, evaluator, move
                )

        if committed:
            accepted += 1
            if instrumented:
                move_counts[move_kind] += 1
                delta_hist.observe(value_after - current)
                phase_accepted += 1
            current = value_after
            if current < best - 1e-12:
                best = current
                best_graph = work.copy()
                improved += 1
        if instrumented and (step + 1) % phase_every == 0:
            emit_phase(step + 1, temperature)
        if history_every and step % history_every == 0:
            history.append((step, current, best))
        if (
            checkpoint_every
            and checkpoint_callback is not None
            and (step + 1) % checkpoint_every == 0
        ):
            checkpoint_callback(capture_checkpoint(step + 1))
        if target is not None and best <= target + 1e-12:
            break

    if history_every and (not history or history[-1][0] != steps_done - 1):
        # Terminal sample: the loop may end between ticks or break on
        # target; convergence plots must not truncate before the last step.
        history.append((steps_done - 1, current, best))

    wall = wall_offset + (obs_clock() - run_t0)
    if instrumented:
        emit_phase(steps_done, schedule.temperature(max(steps_done - 1, 0)))
        tel.counter("anneal.proposals").inc(steps_done - start_step)
        tel.counter("anneal.accepted").inc(accepted - segment_accepted0)
        tel.counter("anneal.improved").inc(improved - segment_improved0)
        for kind, count in move_counts.items():
            if count:
                tel.counter(_MOVE_COUNTERS[kind]).inc(count)
        tel.timer("anneal.wall_s").observe(wall)
        stats = evaluator.stats
        tel.counter("evaluator.proposals").inc(stats["proposals"])
        tel.counter("evaluator.extensions").inc(stats["extensions"])
        tel.counter("evaluator.fallbacks").inc(stats["fallbacks"])
        tel.counter("evaluator.repaired_rows").inc(stats["repaired_rows"])
        tel.event(
            "anneal.done",
            operation=operation,
            steps=steps_done,
            accepted=accepted,
            improved=improved,
            initial_h_aspl=initial,
            best_h_aspl=best,
            wall_time_s=wall,
            proposals_per_sec=steps_done / wall if wall > 0 else 0.0,
        )

    best_graph.validate()
    final_aspl, final_diam = h_aspl_and_diameter(best_graph)
    return AnnealingResult(
        graph=best_graph,
        h_aspl=final_aspl,
        diameter=final_diam,
        operation=operation,
        steps=steps_done,
        accepted=accepted,
        improved=improved,
        initial_h_aspl=initial,
        history=history,
        wall_time_s=wall,
    )


def _validate_resume_state(
    state: dict[str, Any],
    operation: str,
    schedule: AnnealingSchedule,
    rng: np.random.Generator,
) -> None:
    """Reject checkpoints that cannot resume this search bit-identically."""
    fmt = state.get("format")
    if fmt != ANNEAL_CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {ANNEAL_CHECKPOINT_FORMAT} checkpoint (format={fmt!r})"
        )
    if state["operation"] != operation:
        raise ValueError(
            f"checkpoint was taken with operation {state['operation']!r}, "
            f"cannot resume with {operation!r}"
        )
    if int(state["num_steps"]) != schedule.num_steps:
        raise ValueError(
            f"checkpoint schedule has num_steps={state['num_steps']}, "
            f"cannot resume with num_steps={schedule.num_steps}"
        )
    kind = type(rng.bit_generator).__name__
    if state["rng_kind"] != kind:
        raise ValueError(
            f"checkpoint RNG is {state['rng_kind']!r}, cannot restore its "
            f"state into a {kind!r} bit generator"
        )
    step = int(state["step"])
    if not 0 <= step <= schedule.num_steps:
        raise ValueError(
            f"checkpoint step {step} outside [0, {schedule.num_steps}]"
        )


def _scored(
    move: SwapMove | SwingMove,
    score: Callable[[SwapMove | SwingMove], float],
    rng: np.random.Generator,
    current: float,
    temperature: float,
    evaluator: IncrementalEvaluator,
) -> tuple[bool, float]:
    """Score ``move`` with ``score`` and take the accept decision.

    ``score`` is the evaluator's ``propose`` or ``extend``; the proposal
    stays pending for the caller to commit or roll back.  Returns
    ``(take, value)``.
    """
    value = score(move)
    return _accept(value - current, temperature, rng) and evaluator.is_connected(), value


def _commit(
    work: HostSwitchGraph,
    edges: _EdgeList,
    evaluator: IncrementalEvaluator,
    *moves: SwapMove | SwingMove,
) -> None:
    """Keep the pending proposal and apply its ``moves`` to ``work`` and ``edges``.

    The one place the loop edits its graph, in the order the moves were
    scored: a rejected proposal never reaches it.
    """
    evaluator.commit()
    for move in moves:
        move.apply(work)
        edges.apply(move)


def _try_move(
    work: HostSwitchGraph,
    edges: _EdgeList,
    rng: np.random.Generator,
    current: float,
    temperature: float,
    evaluator: IncrementalEvaluator,
    move: SwapMove | SwingMove,
) -> tuple[bool, float]:
    """Score ``move``, then commit it or roll it back.

    Returns ``(committed, value)`` with ``value == current`` on rejection.
    """
    take, value = _scored(move, evaluator.propose, rng, current, temperature, evaluator)
    if take:
        _commit(work, edges, evaluator, move)
        return True, value
    evaluator.rollback()
    return False, current


def _two_neighbor_step(
    work: HostSwitchGraph,
    edges: _EdgeList,
    rng: np.random.Generator,
    current: float,
    temperature: float,
    evaluator: IncrementalEvaluator,
) -> tuple[bool, float, str]:
    """One proposal of the 2-neighbor swing operation (Fig. 4).

    Step 1 tries ``swing(s_a, s_b, s_c)``; if its solution is rejected,
    step 3 tries ``swing(s_d, s_c, s_b)`` on top of it, whose combined
    effect is the swap ``{a,b},{c,d} -> {a,c},{b,d}``.  When step 1 is
    illegal only because ``s_c`` has no host, the equivalent direct swap is
    attempted instead so searches over graphs with hostless switches (the
    Fig. 8 regime) do not stall.

    The step-3 retry is scored as the paper applies it: the evaluator
    keeps step 1's proposal pending and extends it with the second swing,
    so the first swing is repaired once.

    Returns ``(committed, new_value, move_kind)`` where ``move_kind`` names
    the committed (or last attempted) primitive: ``"swing"`` for step 1,
    ``"swing2"`` for the composite retry, ``"swap"`` for the hostless
    fallback.
    """
    edge_list = edges.edges
    if len(edge_list) < 2:
        return False, current, "swing"
    # Two scalar draws: the same PCG64 stream as one size-2 draw, cheaper.
    i = rng.integers(0, len(edge_list))
    j = rng.integers(0, len(edge_list))
    if i == j:
        return False, current, "swing"
    sa, sb = edge_list[int(i)]
    sc, sd = edge_list[int(j)]
    if rng.integers(0, 2):
        sa, sb = sb, sa
    if rng.integers(0, 2):
        sc, sd = sd, sc
    if len({sa, sb, sc, sd}) != 4:
        return False, current, "swing"

    first = SwingMove(sa, sb, sc)
    if not first.is_legal(work):
        if work.hosts_on(sc) == 0:
            # Hosts cannot swing off a hostless switch; fall back to the
            # composite's net effect, which never needs a host.
            swap = SwapMove(sa, sb, sd, sc)
            if swap.is_legal(work):
                committed, value = _try_move(
                    work, edges, rng, current, temperature, evaluator, swap
                )
                return committed, value, "swap"
        return False, current, "swap"

    take, value = _scored(first, evaluator.propose, rng, current, temperature, evaluator)
    if take:
        _commit(work, edges, evaluator, first)
        return True, value, "swing"
    # Step 1 is not on the graph: the second swing is legal after it
    # exactly when the net swap is legal on the committed graph.
    if not SwapMove(sa, sb, sd, sc).is_legal(work):
        evaluator.rollback()
        return False, current, "swing"
    second = SwingMove(sd, sc, sb)
    take, value = _scored(second, evaluator.extend, rng, current, temperature, evaluator)
    if take:
        _commit(work, edges, evaluator, first, second)
        return True, value, "swing2"
    evaluator.rollback()
    return False, current, "swing2"
