"""The four end-to-end workloads and the metrics every one of them reports.

Each workload takes a :class:`Ctx` (seed, measuring time, scratch
directory, speed probe, optional tracer) and returns an :class:`Outcome`.
Inputs come from the seed alone; the program only ever sees the generated
inputs.  Every timing is corrected for the host's current speed (see
``speed.py``).  Set-up runs several times so ``setup_s`` is a median, and
every
workload checks the program's outputs (a failed check counts as a failed
operation).  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e.loadgen import closed_loop, percentile, tail
from benchmarks.e2e.speed import SpeedProbe

__all__ = ["END_TO_END", "WORKLOADS", "Ctx", "Outcome", "end_to_end_metrics"]

HERE = Path(__file__).resolve().parent

#: (metric, unit).  Every workload reports all of them; see README.md for
#: what "one request" and ``run_s`` are on each workload.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("h_aspl", "hops"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
]


@dataclass
class Ctx:
    """Everything a workload needs besides the program itself."""

    seed: int
    seconds: float
    work: Path
    src: Path
    probe: SpeedProbe
    tracer: Any = None
    setups: int = 2
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    """``(phase, start, end)`` of every timed call (``perf_counter``)."""

    def phase(self, name: str) -> AbstractContextManager[Any]:
        return self.tracer.phase(name) if self.tracer is not None else nullcontext()

    def timed(self, phase: str, fn: Callable[[], Any], *, child: bool = False) -> Any:
        """Run ``fn`` inside ``phase`` and record its interval.

        ``child=True`` marks a call that runs a child process on this CPU:
        a kernel timed then would also time the child's share of the CPU,
        so the probe samples just before and after instead.
        """
        if child:
            self.probe.sample()
        with self.probe.paused() if child else nullcontext():
            start = time.perf_counter()
            with self.phase(phase):
                result = fn()
            end = time.perf_counter()
        if child:
            self.probe.sample()
        self.spans.append((phase, start, end))
        return result

    def corrected(self, phase: str) -> list[float]:
        """Corrected seconds of every timed call in ``phase``."""
        return [self.probe.corrected(s, e) for p, s, e in self.spans if p == phase]

    def timings(self) -> list[tuple[str, float, float]]:
        """``(phase, wall seconds, corrected seconds)`` of every timed call."""
        return [(p, e - s, self.probe.corrected(s, e)) for p, s, e in self.spans]

    def scratch(self, tag: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=self.work))

    def units(self, nominal_s: float) -> int:
        """How many fixed-size units fill ``seconds`` (a pure function of
        the arguments, so every run of a workload does the same work)."""
        return max(1, round(self.seconds / nominal_s))

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + extra if extra else "")
        return env


@dataclass
class Outcome:
    """What one workload run measured and checked (corrected seconds)."""

    setup_s: list[float]
    latencies_s: list[float]
    """One per request: a batch unit, or a query on query-mixed."""
    run_s: float
    h_aspl: float
    peak_rss_mb: float
    attempted: int
    problems: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)


def _batch(
    ctx: Ctx, h: float, rss: float, attempted: int, problems: list[str],
    details: dict[str, Any],
) -> Outcome:
    """A batch workload's outcome: one unit is one request, ``run_s`` the
    median unit."""
    units = ctx.corrected("run")
    return Outcome(
        ctx.corrected("setup"), units, statistics.median(units), h, rss, attempted, problems,
        {**details, "units": len(units)},
    )


def end_to_end_metrics(out: Outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(out.setup_s),
        "run_s": out.run_s,
        "h_aspl": out.h_aspl,
        "peak_rss_mb": out.peak_rss_mb,
        "p50_ms": 1e3 * percentile(out.latencies_s, 50),
        "tail_ms": 1e3 * tail(out.latencies_s)[0],
    }


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _digest(*parts: Any) -> str:
    return hashlib.sha256("\n".join(str(p) for p in parts).encode()).hexdigest()


def _check_annealed(graph: Any, reported: float, problems: list[str], what: str) -> None:
    """An annealed result must validate and recompute to its reported h-ASPL."""
    from repro.core.metrics import h_aspl

    try:
        graph.validate()
    except ValueError as exc:
        problems.append(f"{what}: invalid graph: {exc}")
        return
    recomputed = h_aspl(graph)
    if recomputed != reported:
        problems.append(f"{what}: h-ASPL {reported!r} recomputes to {recomputed!r}")


# ---------------------------------------------------------------- solve --

SOLVE_POINT = {"n": 1024, "r": 15, "steps": 20_000, "restarts": 1}
SOLVE_CHECKPOINT_EVERY = 2_000
#: Seconds of ``--seconds`` each unit stands for (one solve per 20 s).
SOLVE_UNIT_S = 20.0
IMPORT_PROBE = "import repro.cli, repro.campaign.executor, repro.core.solver"


def solve_1024(ctx: Ctx) -> Outcome:
    """``repro campaign run`` on one paper-scale point, into a fresh store."""
    from repro.campaign import executor
    from repro.campaign.spec import load_spec
    from repro.campaign.store import CampaignStore
    from repro.core.serialization import graph_to_text

    for _ in range(2 * ctx.setups + 1):
        # A campaign run starts with a fresh interpreter importing the
        # program; that start-up is the set-up a user pays every time.
        # It is short, so it is timed more often than the other set-ups.
        ctx.timed("setup", lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=ctx.env(), check=True, timeout=120
        ), child=True)
    spec = load_spec(
        {
            "name": "solve-1024",
            "grid": {**SOLVE_POINT, "seed": ctx.seed},
            "executor": {"checkpoint_every": SOLVE_CHECKPOINT_EVERY},
        }
    )
    digests, problems = set(), []
    h = math.nan
    units = ctx.units(SOLVE_UNIT_S)
    for _ in range(units):
        root = ctx.scratch("solve")
        result = ctx.timed("run", lambda: executor.run_campaign(spec, root, jobs=1))
        outcome = result.outcomes[0]
        if outcome.status != "solved":
            problems.append(f"solve-1024: point {outcome.status}: {outcome.error}")
            continue
        solution = CampaignStore(root, spec.name).load_result(outcome.digest)
        if solution.h_aspl != outcome.h_aspl:
            problems.append("solve-1024: stored h-ASPL differs from the reported one")
        _check_annealed(solution.graph, solution.h_aspl, problems, "solve-1024")
        h = solution.h_aspl
        digests.add(
            _digest(graph_to_text(solution.graph), repr(h), solution.restarts[0].accepted)
        )
    rss = _peak_rss_mb()
    if len(digests) > 1:
        problems.append("solve-1024: repeated solves of one seed disagree")
    return _batch(ctx, h, rss, units, problems, {"digest": min(digests, default="")})


# --------------------------------------------------------------- anneal --

ANNEAL_SHAPE = (4096, 734, 16)
ANNEAL_STEPS = 8_000
ANNEAL_UNIT_S = 20.0
ANNEAL_SEED_STRIDE = 1_000_003


def anneal_4096(ctx: Ctx) -> Outcome:
    """A fixed-step anneal at 4x the switches of solve-1024."""
    import repro.core.annealing as annealing
    import repro.core.construct as construct
    from repro.core.serialization import graph_to_text

    # Construction time depends on the seed: about one seed in six makes the
    # random edge fill miss for thousands of tries and takes 3x longer.  So
    # set-up builds start graphs for several seeds derived from this one
    # (``setup_s`` is their median) and anneals the first.
    for i in range(2 * ctx.setups + 1):
        graph = ctx.timed("setup", lambda i=i: construct.random_host_switch_graph(
            *ANNEAL_SHAPE, seed=ctx.seed + ANNEAL_SEED_STRIDE * i
        ))
        if i == 0:
            start = graph
    del graph
    rebuilt = construct.random_host_switch_graph(*ANNEAL_SHAPE, seed=ctx.seed)
    problems = []
    if graph_to_text(rebuilt) != graph_to_text(start):
        problems.append("anneal-4096: one seed built different graphs")
    del rebuilt
    schedule = annealing.AnnealingSchedule(num_steps=ANNEAL_STEPS)
    digests = set()
    results = []
    units = ctx.units(ANNEAL_UNIT_S)
    for _ in range(units):
        results.append(ctx.timed(
            "run", lambda: annealing.anneal(start, schedule=schedule, seed=ctx.seed + 1)
        ))
    rss = _peak_rss_mb()
    for res in results:
        _check_annealed(res.graph, res.h_aspl, problems, "anneal-4096")
        digests.add(_digest(graph_to_text(res.graph), repr(res.h_aspl), res.accepted))
    if len(digests) > 1:
        problems.append("anneal-4096: repeated anneals of one seed disagree")
    last = results[-1]
    return _batch(
        ctx, last.h_aspl, rss, units, problems,
        {"digest": min(digests), "accepted": last.accepted},
    )


# -------------------------------------------------------------- compose --

COMPOSE_SHAPE = (100_000, 139)
COMPOSE_UNIT_S = 4.0


def compose_100k(ctx: Ctx) -> Outcome:
    """Warm 100k-host fabric builds over a block memoized in the store."""
    import repro.compose.fabric as fabric
    from repro.campaign.store import CampaignStore

    def build(store: CampaignStore, **kw: Any) -> Any:
        return fabric.build_fabric(*COMPOSE_SHAPE, store=store, seed=ctx.seed, **kw)

    problems = []
    store = cold = None
    for _ in range(ctx.setups):
        store = CampaignStore(ctx.scratch("compose"), "blocks")
        cold = ctx.timed("setup", lambda: build(store))
        if cold.block_source != "solved":
            problems.append(f"compose-100k: cold build came from {cold.block_source}")
    predicted = cold.predicted_h_aspl
    del cold
    build(store)  # warm-up: lazy imports and page cache, untimed
    units = ctx.units(COMPOSE_UNIT_S)
    for _ in range(units):
        warm = ctx.timed("run", lambda: build(store))
        if warm.block_source != "store" or warm.predicted_h_aspl != predicted:
            problems.append("compose-100k: warm build disagrees with the cold one")
        del warm
    rss = _peak_rss_mb()
    measured = build(store, measure=True)
    if not measured.measured_h_aspl == measured.predicted_h_aspl == predicted:
        problems.append(
            f"compose-100k: measured {measured.measured_h_aspl!r} != "
            f"predicted {predicted!r}"
        )
    return _batch(
        ctx, predicted, rss, units + 1, problems,
        {
            "digest": _digest(measured.block_digest, repr(predicted)),
            "fabric_switches": measured.m,
            "copies": measured.copies,
        },
    )


# ---------------------------------------------------------------- query --

HOST = "127.0.0.1"
#: Ops per second of ``--seconds`` (a fixed count, so every run of the
#: workload does the same work; about 10 s of requests at 20 s).
QUERY_OPS_PER_S = 300
LIVE_SHAPES = 32
POINTS_PER_SHAPE = 8
TEMPLATE_SHAPES = ((16, 4), (20, 4), (16, 5), (24, 5))
#: Fabrics whose blocks (1024 hosts at radix 69, 1000 at 68) are in the
#: clique regime, so seeding the ``blocks`` shard needs no annealing.
BLOCK_FABRICS = ((2048, 70), (3000, 70))
MIX = (("write", 0.10), ("index", 0.60), ("compose", 0.15), ("bounds", 0.15))
DEFAULT_BLOCK_HOSTS = 1024


def _plan(n: int, r: int) -> tuple[int, int, int]:
    """``(copies, block_hosts, block_radix)`` of the service's compose plan
    (the clique-of-clones split with the default 1024-host block cap)."""
    copies = max(1, math.ceil(n / DEFAULT_BLOCK_HOSTS))
    return copies, math.ceil(n / copies), r - copies + 1


def _compose_keys(block_n: int, block_r: int) -> list[tuple[int, int]]:
    """Every unstored (n, r) the service answers from this block."""
    keys = []
    for copies in range(2, 9):
        lo = max(copies * (block_n - 1) + 1, DEFAULT_BLOCK_HOSTS * (copies - 1) + 1)
        for n in range(lo, copies * block_n + 1):
            key = (n, block_r + copies - 1)
            if _plan(*key) == (copies, block_n, block_r):
                keys.append(key)
    return keys


@dataclass
class QueryInputs:
    """Seeded inputs of query-mixed: shard contents and the op stream."""

    seed_scores: list[tuple[int, int, int, float]]
    ops: list[tuple[Any, ...]]
    warmup: list[tuple[int, int]]


def query_inputs(seed: int, count: int) -> QueryInputs:
    """The shard contents and ``count`` ops, from the seed alone.

    Every op carries the answer it must get: an index hit expects the
    minimum h-ASPL written for its shape *so far*, so expectations are
    replayed here in op order.
    """
    rng = random.Random(seed)
    shapes: list[tuple[int, int]] = []
    while len(shapes) < LIVE_SHAPES:
        shape = (rng.randrange(16, 513), rng.randrange(4, 13))
        if shape not in shapes:
            shapes.append(shape)
    serial = 0
    best: dict[tuple[int, int], float] = {}
    seed_scores = []
    for n, r in shapes:
        for _ in range(POINTS_PER_SHAPE):
            score = 3.0 + 0.5 * rng.random()
            seed_scores.append((n, r, serial, score))
            serial += 1
            best[(n, r)] = min(best.get((n, r), math.inf), score)
    zipf = [1.0 / (rank + 1) for rank in range(LIVE_SHAPES)]
    blocks = [_plan(*fab)[1:] for fab in BLOCK_FABRICS]
    compose_keys = [key for block in blocks for key in _compose_keys(*block)]
    stored = set(shapes) | set(blocks)
    used: set[tuple[int, int]] = set()

    def fresh_bounds_key() -> tuple[int, int]:
        while True:
            key = (rng.randrange(5_000, 60_000), rng.randrange(24, 65))
            if key not in used and _plan(*key)[1:] not in stored:
                used.add(key)
                return key

    warmup = [shapes[0], compose_keys[0], fresh_bounds_key()]
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    ops: list[tuple[Any, ...]] = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "write":
            n, r = rng.choices(shapes, zipf)[0]
            score = 3.0 + 0.5 * rng.random()
            ops.append(("write", n, r, serial, score))
            serial += 1
            best[(n, r)] = min(best[(n, r)], score)
        elif kind == "index":
            n, r = rng.choices(shapes, zipf)[0]
            ops.append(("index", n, r, best[(n, r)]))
        elif kind == "compose":
            ops.append(("compose", *rng.choice(compose_keys), None))
        else:
            ops.append(("bounds", *fresh_bounds_key(), None))
    return QueryInputs(seed_scores, ops, warmup)


def _live_point(n: int, r: int, serial: int) -> dict[str, Any]:
    from repro.campaign.spec import normalize_point

    return normalize_point({"n": n, "r": r, "steps": 60, "seed": serial})


def _seed_store(root: Path, inputs: QueryInputs) -> dict[tuple[int, int], float]:
    """A ``live`` shard of fabricated-score points over real small solves
    (the artifact shapes of real campaign output) and a ``blocks`` shard;
    returns the predicted h-ASPL of each fabric in ``BLOCK_FABRICS``."""
    from repro.campaign.spec import point_digest
    from repro.campaign.store import CampaignStore
    from repro.compose.fabric import build_fabric
    from repro.core.annealing import AnnealingSchedule
    from repro.core.solver import solve_orp

    templates = [
        solve_orp(n, r, schedule=AnnealingSchedule(num_steps=60), seed=0)
        for n, r in TEMPLATE_SHAPES
    ]
    live = CampaignStore(root, "live")
    for n, r, serial, score in inputs.seed_scores:
        point = _live_point(n, r, serial)
        fake = dataclasses.replace(templates[serial % len(templates)], h_aspl=score)
        live.save_result(point_digest(point), point, fake)
    blocks = CampaignStore(root, "blocks")
    return {
        (n, r): build_fabric(n, r, store=blocks).predicted_h_aspl for n, r in BLOCK_FABRICS
    }


def _start_server(ctx: Ctx, root: Path, trace_out: Path | None) -> tuple[Any, int, Any]:
    """Launch ``repro serve`` (via the tracing entry script when traced)."""
    port_file = root / "port"
    port_file.unlink(missing_ok=True)
    args = [
        "serve", "--store", str(root), "--campaigns", "live", "blocks",
        "--no-refine", "--port", "0", "--port-file", str(port_file),
    ]
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, str(HERE / "serve_entry.py"), str(trace_out), *args]
    log = open(root / "server.log", "wb")  # closed by _stop_server
    proc = subprocess.Popen(cmd, env=ctx.env(), stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 120
    while True:
        if proc.poll() is not None:
            log.close()
            tail = (root / "server.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"server exited early:\n{tail}")
        try:
            port = int(port_file.read_text().strip())
            break
        except (OSError, ValueError):
            if time.monotonic() > deadline:
                _stop_server(proc, None, log)
                raise RuntimeError("server did not publish its port") from None
            time.sleep(0.005)
    return proc, port, log


def _stop_server(proc: Any, port: int | None, log: Any) -> None:
    from repro.serve import client

    try:
        if port is not None:
            client.shutdown(HOST, port)
        proc.wait(timeout=60)
    except (OSError, client.ServerError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait(timeout=60)
    finally:
        log.close()


def query_mixed(ctx: Ctx) -> Outcome:
    """A closed loop of reads and writes against ``repro serve``."""
    from repro.campaign.spec import point_digest
    from repro.campaign.store import CampaignStore
    from repro.serve import client

    inputs = query_inputs(ctx.seed, int(ctx.seconds * QUERY_OPS_PER_S))
    root = ctx.scratch("serve")
    fabrics = _seed_store(root, inputs)  # the store a user already has: not set-up
    server = None
    trace_out = None
    setups = 2 * ctx.setups + 1  # short, so timed as often as solve-1024's
    for i in range(setups):
        last = i == setups - 1
        trace_out = root / "server-trace.json" if ctx.tracer is not None and last else None

        def start(trace_out: Path | None = trace_out) -> tuple[Any, int, Any]:
            proc, port, log = _start_server(ctx, root, trace_out)
            try:
                client.ping(HOST, port)
            except BaseException:
                _stop_server(proc, port, log)
                raise
            return proc, port, log

        server = ctx.timed("setup", start, child=True)
        if not last:
            _stop_server(*server)
    proc, port, log = server
    live = CampaignStore(root, "live")
    template = live.load_result(
        point_digest(_live_point(*inputs.seed_scores[0][:3]))
    )
    writes = {}
    for op in inputs.ops:
        if op[0] == "write":
            _, n, r, serial, score = op
            point = _live_point(n, r, serial)
            writes[serial] = (
                point_digest(point), point, dataclasses.replace(template, h_aspl=score)
            )

    def do_op(op: tuple[Any, ...]) -> Any:
        try:
            if op[0] == "write":
                digest, point, fake = writes[op[3]]
                live.save_result(digest, point, fake)
                return None
            return client.query(HOST, port, op[1], op[2])
        except (client.ServerError, OSError) as exc:
            return exc

    try:
        for n, r in inputs.warmup:
            client.query(HOST, port, n, r)
        # The probe samples between requests: a kernel inside one would
        # delay it.
        with ctx.probe.paused():
            sent = ctx.timed(
                "run", lambda: closed_loop(inputs.ops, do_op, between=ctx.probe.sample)
            )
        # Quality of the answers a user gets for the composed fabrics the
        # store can serve: the same on every seed, unlike the index scores,
        # which the generator makes up.
        fabric_answers = {key: client.query(HOST, port, *key) for key in fabrics}
    finally:
        _stop_server(proc, port, log)
    rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    latencies = [ctx.probe.corrected(s.start, s.end) for s in sent]

    block_digests = {e.digest for e in CampaignStore(root, "blocks").index_entries()}
    problems, by_kind = [], {}
    sources = {"index": 0, "compose-predicted": 0, "bounds": 0}
    busy = 0
    expected_source = {"index": "index", "compose": "compose-predicted", "bounds": "bounds"}
    for op, s, latency in zip(inputs.ops, sent, latencies):
        kind, result = op[0], s.result
        by_kind.setdefault(kind, []).append(latency)
        if isinstance(result, Exception):
            busy += bool(getattr(result, "busy", False))
            problems.append(f"query-mixed {kind} {op[1:3]}: {result}")
            continue
        if kind == "write":
            if not live.has_result(writes[op[3]][0]):
                problems.append(f"query-mixed: write {op[1:4]} did not land")
            continue
        sources[result.get("source")] = sources.get(result.get("source"), 0) + 1
        if result.get("source") != expected_source[kind]:
            problems.append(f"query-mixed {kind} {op[1:3]}: source {result.get('source')}")
        elif kind == "index" and result.get("h_aspl") != op[3]:
            problems.append(
                f"query-mixed {op[1:3]}: h-ASPL {result.get('h_aspl')!r}, expected {op[3]!r}"
            )
        elif kind == "compose" and result.get("digest") not in block_digests:
            problems.append(f"query-mixed {op[1:3]}: compose answer names no stored block")
    for key, answer in fabric_answers.items():
        if answer.get("source") != "compose-predicted" or answer.get("h_aspl") != fabrics[key]:
            problems.append(
                f"query-mixed {key}: answered {answer.get('source')} "
                f"{answer.get('h_aspl')!r}, build_fabric predicts {fabrics[key]!r}"
            )
    queries = [s for op, s in zip(inputs.ops, sent) if op[0] != "write"]
    query_latencies = [lat for op, lat in zip(inputs.ops, latencies) if op[0] != "write"]
    details: dict[str, Any] = {
        "digest": _digest(*(repr(s.result.get("h_aspl")) if isinstance(s.result, dict)
                            else "-" for s in sent)),
        "ops": len(sent),
        "latency_ms": {kind: _latency_summary(group) for kind, group in sorted(by_kind.items())},
        "query_ms": _latency_summary(query_latencies),
        "write_ms": _latency_summary(by_kind.get("write", [])),
        "query_round_trip_s": sum(s.latency_s for s in queries),
        "queries": len(queries),
        "sources": sources,
        "busy": busy,
    }
    if trace_out is not None:
        details["server_trace"] = json.loads(trace_out.read_text())
    # run_s leaves the writes out: their time follows the shared disk (see
    # README.md, "Write latency").
    return Outcome(
        ctx.corrected("setup"), query_latencies, sum(query_latencies),
        statistics.fmean(a.get("h_aspl", math.nan) for a in fabric_answers.values()),
        rss, len(sent) + len(fabric_answers), problems, details,
    )


def _latency_summary(values: list[float]) -> dict[str, float]:
    """Count, median and tail (ms) of request latencies given in seconds."""
    if not values:
        return {"count": 0}
    value, pct = tail(values)
    return {
        "count": len(values),
        "p50": 1e3 * percentile(values, 50),
        "tail": 1e3 * value,
        "tail_pct": pct,
    }


WORKLOADS: dict[str, Callable[[Ctx], Outcome]] = {
    "solve-1024": solve_1024,
    "anneal-4096": anneal_4096,
    "compose-100k": compose_100k,
    "query-mixed": query_mixed,
}
