"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``bounds n r``
    Print Theorem-1/2 lower bounds, m_opt, the continuous Moore bound,
    the Shimizu–Mori diameter-3 bound, and the LACIN clique baseline;
    ``--json`` emits the same numbers machine-readably.
``solve n r``
    Solve the ORP instance (annealed search) and print the summary;
    optionally save the graph with ``--out``.
``compose n r``
    Build a large fabric (``n`` up to 10^5) by gluing copies of a small
    ORP-optimal block (:mod:`repro.compose`); the block is memoized in a
    campaign store, and the fabric's h-ASPL is predicted in closed form
    (``--measure`` confirms by exact APSP).
``odp n d``
    Solve the classic Order/Degree Problem (Graph Golf objective).
``topology name [params...]``
    Build a conventional topology and print its spec and metrics; the
    per-family flags are declared in :mod:`repro.topologies.registry`.
``campaign run|resume|status|report SPEC``
    Durable experiment sweeps over a content-addressed result store
    (:mod:`repro.campaign`); killed runs resume bit-identically.
``simulate``
    Run one NAS skeleton on a topology (built or loaded) and print Mop/s.
``traffic``
    Drive a synthetic pattern and print latency/throughput; ``--faults``
    injects a seeded failure schedule mid-run.
``resilience``
    k-simultaneous-failure sweep with degraded (reachability-aware)
    metrics and percentile reporting (:mod:`repro.analysis.resilience`).
``serve``
    Long-running topology-as-a-service daemon over a campaign store root
    (:mod:`repro.serve`): answers "best known topology for (n, r)" from
    the stores' leaderboard indexes, falls back to composition/bounds,
    and refines misses in the background (single-flight per key).
``query n r``
    Client for a running ``repro serve``; prints the answer (source,
    h-ASPL, provenance digest) human-readably or as ``--json``.
``telemetry summarize|validate|analyze|flamegraph PATH``
    Report on, schema-check, span-tree-analyze, or flamegraph-export a
    ``--telemetry-out`` JSONL trace (:mod:`repro.obs.analyze`).
``telemetry regress CURRENT --baseline BASELINE``
    Perf-regression gate of one BENCH_*.json run against a committed
    baseline (:mod:`repro.obs.regress`); exits 1 on regression.
``monitor PATH``
    Live terminal dashboard over a growing JSONL trace or a campaign
    store directory (:mod:`repro.obs.progress`); ``--once`` prints a
    single snapshot for CI.

Global options (before or after the subcommand):

``--telemetry-out PATH``
    Stream a ``repro.obs`` JSONL trace of the run to ``PATH``; inspect it
    afterwards with ``repro telemetry summarize PATH``.
``--log-level LEVEL``
    Diagnostics verbosity (``debug``/``info``/``warning``/``error``).
    Diagnostics go to stderr via :mod:`logging`; command *results* go to
    stdout, so output stays pipeable.
"""

from __future__ import annotations

import argparse
import logging
import sys

__all__ = ["main", "build_parser"]

_log = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _emit(*lines: object) -> None:
    """Write result lines (the command's payload) to stdout."""
    for line in lines:
        print(line)


def _configure_logging(level_name: str) -> None:
    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _add_global_options(parser: argparse.ArgumentParser, *, subparser: bool) -> None:
    """Install ``--log-level`` / ``--telemetry-out`` on a parser.

    Subparsers get ``default=argparse.SUPPRESS`` so a value parsed by the
    main parser (flag *before* the subcommand) survives on the shared
    namespace unless the user repeats the flag after the subcommand.
    """
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=argparse.SUPPRESS if subparser else "info",
        help="diagnostics verbosity (stderr; default: info)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=argparse.SUPPRESS if subparser else None,
        help="write a repro.obs JSONL telemetry trace of the run to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Order/Radix Problem toolkit (ICPP'17 reproduction)",
    )
    _add_global_options(parser, subparser=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, subparser=True)
        return p

    p = add_command("bounds", help="lower bounds and m_opt for (n, r)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--json", action="store_true",
                   help="emit the bounds as JSON (inf becomes null)")

    p = add_command("compose",
                    help="compose a large fabric from a memoized ORP block")
    p.add_argument("n", type=int, help="target fabric host count")
    p.add_argument("r", type=int, help="fabric switch radix")
    p.add_argument("--copies", type=int, default=None,
                   help="block copies (default: ceil(n / block-hosts))")
    p.add_argument("--block-hosts", type=int, default=None,
                   help="hosts per block (default: 1024, see repro.compose)")
    p.add_argument("--m", type=int, default=None,
                   help="override the block's switch count")
    p.add_argument("--steps", type=int, default=10_000,
                   help="SA proposals for the block search")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--construction", choices=["random", "regular"],
                   default="random", help="block initial construction")
    p.add_argument("--store", default="campaigns",
                   help="campaign store root for block memoization "
                        "(default: campaigns)")
    p.add_argument("--campaign", default="compose-blocks",
                   help="store campaign name holding memoized blocks")
    p.add_argument("--no-store", action="store_true",
                   help="solve the block in-memory; skip memoization")
    p.add_argument("--measure", action="store_true",
                   help="confirm the closed-form prediction with a full "
                        "fabric APSP (expensive at large n)")
    p.add_argument("--json", action="store_true",
                   help="emit the compose result as JSON instead of a summary")
    p.add_argument("--out", type=str, default=None,
                   help="save the fabric graph (HSG v1)")

    p = add_command("solve", help="solve an ORP instance")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--m", type=int, default=None, help="override switch count")
    p.add_argument("--steps", type=int, default=10_000, help="SA proposals")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the restart fan-out "
                        "(same result as serial for any value)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="save graph (HSG v1)")

    p = add_command("odp", help="solve an Order/Degree Problem instance")
    p.add_argument("n", type=int, help="number of vertices")
    p.add_argument("d", type=int, help="degree")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = add_command("topology", help="build and measure a conventional topology")
    from repro.topologies import available_topologies, topology_cli_flags

    p.add_argument("name", choices=available_topologies())
    # Flags come from each family's declaration in topologies/registry.py;
    # adding a topology never requires editing this file.
    for param in topology_cli_flags():
        p.add_argument(param.flag, type=int, default=param.default, help=param.help)
    p.add_argument("--hosts", type=int, default=None,
                   help="attached host count (families with a num_hosts knob)")
    p.add_argument("--out", type=str, default=None, help="save graph (HSG v1)")

    p = add_command("simulate", help="run a NAS skeleton on a topology")
    p.add_argument("benchmark", help="bt|cg|ep|ft|is|lu|mg|sp")
    p.add_argument("--graph", type=str, default=None, help="HSG v1 file to load")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--nas-class", choices=["A", "B"], default="A")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--model", choices=["fluid", "latency"], default="fluid")
    p.add_argument("--routing", choices=["shortest", "ecmp", "valiant"],
                   default="shortest")
    p.add_argument("--mapping", choices=["linear", "dfs", "random"], default="dfs")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the (possibly random) rank-to-host mapping")

    p = add_command("traffic", help="synthetic traffic latency/throughput")
    p.add_argument("pattern")
    p.add_argument("--graph", type=str, default=None, help="HSG v1 file to load")
    p.add_argument("--messages", type=int, default=20)
    p.add_argument("--bytes", type=float, default=65536.0)
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--routing", choices=["shortest", "ecmp", "valiant"],
                   default="shortest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fail-links", type=int, default=0,
                   help="inject N seeded random link failures at t=0")
    p.add_argument("--fail-switches", type=int, default=0,
                   help="inject N seeded random switch failures at t=0")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the injected failure schedule")

    p = add_command("resilience", help="failure sweep with degraded metrics")
    p.add_argument("--graph", type=str, default=None, help="HSG v1 file to load")
    p.add_argument("--n", type=int, default=None,
                   help="build a random (n, r) graph instead of loading one")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="override switch count")
    p.add_argument("--graph-seed", type=int, default=0,
                   help="seed for the built graph (with --n/--r)")
    p.add_argument("--mode", choices=["link", "switch"], default="link")
    p.add_argument("--failures", type=int, default=1,
                   help="simultaneous failures per trial")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the raw sweep result as JSON instead of a table")

    p = add_command("campaign", help="run durable, resumable experiment sweeps")
    csub = p.add_subparsers(dest="campaign_command", required=True)
    for cname, chelp in (
        ("run", "execute a campaign spec (skips already-solved points)"),
        ("resume", "continue an existing campaign from its store"),
        ("status", "per-point state of a campaign"),
        ("report", "result table of a campaign"),
    ):
        cp = csub.add_parser(cname, help=chelp)
        _add_global_options(cp, subparser=True)
        cp.add_argument("spec", help="campaign spec (JSON file)")
        cp.add_argument("--store", default="campaigns",
                        help="campaign store root directory (default: campaigns)")
        if cname == "report":
            cp.add_argument("--best", action="store_true",
                            help="append the store's best known ORP result "
                                 "at each point's (n, r)")
        if cname == "status":
            cp.add_argument("--rebuild-index", action="store_true",
                            help="regenerate the leaderboard index from a "
                                 "full artifact scan before reporting (the "
                                 "only scanning query path)")
        if cname in ("run", "resume"):
            cp.add_argument("--jobs", type=int, default=None,
                            help="override executor.jobs from the spec")
            cp.add_argument("--stop-after-checkpoints", type=int, default=None,
                            help="drain after N annealer checkpoints "
                                 "(deterministic interrupt for tests/CI)")

    p = add_command("serve", help="topology-as-a-service daemon over a store root")
    p.add_argument("--store", default="campaigns",
                   help="campaign store root to serve (default: campaigns)")
    p.add_argument("--campaigns", nargs="*", default=None,
                   help="shard (campaign) names to serve "
                        "(default: discover every campaign under --store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port (0 picks an ephemeral port; default: 7421)")
    p.add_argument("--port-file", default=None,
                   help="write the bound port here once listening "
                        "(for scripts using --port 0)")
    p.add_argument("--block-hosts", type=int, default=None,
                   help="block size cap for the compose fallback "
                        "(default: library default, 1024)")
    p.add_argument("--no-refine", action="store_true",
                   help="disable background refinement on cache miss")
    p.add_argument("--refine-steps", type=int, default=2000,
                   help="annealing steps per background refinement "
                        "(default: 2000)")
    p.add_argument("--refine-campaign", default="serve-refine",
                   help="campaign receiving refinement results "
                        "(default: serve-refine)")
    p.add_argument("--rebuild-index", action="store_true",
                   help="rebuild every shard's leaderboard index from a "
                        "full scan before serving")

    p = add_command("query", help="ask a running `repro serve` for (n, r)")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--port-file", default=None,
                   help="read the port from this file (overrides --port)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="socket timeout in seconds (default: 30)")
    p.add_argument("--json", action="store_true",
                   help="print the raw answer object as JSON")

    p = add_command("telemetry", help="inspect a repro.obs JSONL trace")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    for tname, thelp in (
        ("summarize", "human-readable report of a telemetry trace"),
        ("validate", "schema-check every line of a telemetry trace"),
        ("analyze", "span trees, time attribution, and critical path"),
        ("flamegraph", "folded-stack flamegraph export of the span forest"),
    ):
        tp = tsub.add_parser(tname, help=thelp)
        _add_global_options(tp, subparser=True)
        tp.add_argument("path", help="JSONL file written via --telemetry-out")
        if tname == "flamegraph":
            tp.add_argument("--out", default=None,
                            help="write folded stacks here instead of stdout")
    tp = tsub.add_parser(
        "regress", help="perf-regression gate over BENCH_*.json runs"
    )
    _add_global_options(tp, subparser=True)
    tp.add_argument("current", help="benchmark JSON of the current run")
    tp.add_argument("--baseline", required=True,
                    help="committed baseline JSON")
    tp.add_argument("--names", nargs="*", default=None,
                    help="gated benchmark names (default: all in the baseline)")
    tp.add_argument("--tolerance", type=float, default=1.5,
                    help="fail when current/baseline exceeds this ratio")

    p = add_command("monitor",
                    help="live dashboard over a trace file or campaign store")
    p.add_argument("path", help="JSONL trace file or campaign store directory")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (CI mode)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds (default: 2)")
    p.add_argument("--cycles", type=int, default=None,
                   help="stop after N refreshes (default: until interrupted)")

    return parser


def _telemetry_from_args(args: argparse.Namespace):
    """A JSONL-sinking registry when ``--telemetry-out`` was given, else None."""
    path = getattr(args, "telemetry_out", None)
    if not path:
        return None
    from repro.obs import JsonlSink, TelemetryRegistry

    registry = TelemetryRegistry()
    registry.add_sink(JsonlSink(path))
    _log.debug("telemetry streaming to %s", path)
    return registry


def _default_graph():
    """Fallback network for simulate/traffic when no --graph is given."""
    from repro.topologies import torus

    return torus(2, 4, 8, num_hosts=64, fill="round-robin")[0]


def _cmd_bounds(args, telemetry) -> int:
    import math

    from repro.analysis.report import format_table
    from repro.core.bounds import (
        diameter_lower_bound,
        h_aspl_lower_bound,
        lacin_h_aspl_baseline,
        lacin_switch_count,
        shimizu_mori_h_aspl_lower_bound,
    )
    from repro.core.moore import continuous_moore_bound, optimal_switch_count

    m_opt, bound = optimal_switch_count(args.n, args.r)
    sm_bound = shimizu_mori_h_aspl_lower_bound(args.n, m_opt, args.r)
    lacin_m = lacin_switch_count(args.n, args.r)
    lacin = lacin_h_aspl_baseline(args.n, args.r)
    if args.json:
        import json

        def finite(value):
            return None if isinstance(value, float) and math.isinf(value) else value

        _emit(json.dumps({
            "n": args.n,
            "r": args.r,
            "diameter_lower_bound": diameter_lower_bound(args.n, args.r),
            "h_aspl_lower_bound": h_aspl_lower_bound(args.n, args.r),
            "m_opt": m_opt,
            "continuous_moore_bound": finite(bound),
            "continuous_moore_bound_2x": finite(
                continuous_moore_bound(args.n, 2 * m_opt, args.r)
            ),
            "shimizu_mori_bound": finite(sm_bound),
            "lacin_switch_count": lacin_m,
            "lacin_baseline": finite(lacin),
        }, sort_keys=True))
        return 0
    rows = [
        ["diameter lower bound (Thm 1)", diameter_lower_bound(args.n, args.r)],
        ["h-ASPL lower bound (Thm 2)", h_aspl_lower_bound(args.n, args.r)],
        ["predicted m_opt", m_opt],
        ["continuous Moore bound @ m_opt", bound],
        ["continuous Moore bound @ 2*m_opt",
         continuous_moore_bound(args.n, 2 * m_opt, args.r)],
        ["Shimizu-Mori d3 bound @ m_opt", sm_bound],
        ["LACIN clique size", lacin_m if lacin_m is not None else "-"],
        ["LACIN baseline (achievable)", lacin],
    ]
    _emit(format_table(["quantity", "value"], rows,
                       title=f"ORP bounds for n={args.n}, r={args.r}"))
    return 0


def _cmd_compose(args, telemetry) -> int:
    from repro.campaign.store import CampaignStore
    from repro.compose import build_fabric

    store = None if args.no_store else CampaignStore(args.store, args.campaign)
    _log.info(
        "composing fabric for n=%d r=%d (store: %s)",
        args.n, args.r, "disabled" if store is None else store.dir,
    )
    result = build_fabric(
        args.n, args.r,
        copies=args.copies, block_hosts=args.block_hosts, m=args.m,
        steps=args.steps, restarts=args.restarts, seed=args.seed,
        construction=args.construction, store=store, measure=args.measure, telemetry=telemetry,
    )
    if args.json:
        import json

        _emit(json.dumps(result.to_dict(), sort_keys=True))
    else:
        _emit(result.summary())
    if args.out:
        from repro.core.serialization import save_graph

        save_graph(result.graph, args.out)
        _log.info("saved fabric to %s", args.out)
    return 0


def _cmd_solve(args, telemetry) -> int:
    from repro.core.annealing import AnnealingSchedule
    from repro.core.serialization import save_graph
    from repro.core.solver import solve_orp

    _log.info("solving ORP(n=%d, r=%d), %d restart(s), %d job(s)",
              args.n, args.r, args.restarts, args.jobs)
    sol = solve_orp(
        args.n, args.r, m=args.m,
        schedule=AnnealingSchedule(num_steps=args.steps),
        restarts=args.restarts, jobs=args.jobs, seed=args.seed,
        telemetry=telemetry,
    )
    _emit(sol.summary())
    for restart in sol.restarts:
        _log.debug(
            "restart %d: h-ASPL %.4f -> %.4f (%d accepted, %.2fs)",
            restart.index, restart.initial_h_aspl, restart.h_aspl,
            restart.accepted, restart.wall_time_s,
        )
    if args.out:
        save_graph(sol.graph, args.out)
        _log.info("saved graph to %s", args.out)
    return 0


def _cmd_odp(args, telemetry) -> int:
    from repro.core.annealing import AnnealingSchedule
    from repro.core.odp import solve_odp

    sol = solve_odp(
        args.n, args.d,
        schedule=AnnealingSchedule(num_steps=args.steps),
        restarts=args.restarts, seed=args.seed,
        telemetry=telemetry,
    )
    _emit(sol.summary())
    return 0


def _cmd_topology(args, telemetry) -> int:
    from repro.core.metrics import h_aspl_and_diameter
    from repro.core.serialization import save_graph
    from repro.topologies import build_topology, topology_cli_kwargs

    kwargs = topology_cli_kwargs(args.name, vars(args))
    graph, spec = build_topology(args.name, **kwargs)
    aspl, diam = h_aspl_and_diameter(graph)
    _emit(
        spec,
        f"attached hosts: {graph.num_hosts}",
        f"h-ASPL = {aspl:.4f}, diameter = {diam:.0f}",
    )
    if args.out:
        save_graph(graph, args.out)
        _log.info("saved graph to %s", args.out)
    return 0


def _cmd_simulate(args, telemetry) -> int:
    from repro.core.serialization import load_graph
    from repro.simulation.apps import run_nas
    from repro.simulation.mapping import rank_to_host_mapping

    graph = load_graph(args.graph) if args.graph else _default_graph()
    mapping = rank_to_host_mapping(graph, args.ranks, args.mapping, seed=args.seed)
    res = run_nas(
        args.benchmark, graph, args.ranks, nas_class=args.nas_class,
        iterations=args.iterations, rank_to_host=mapping, model=args.model,
        telemetry=telemetry,
    )
    _emit(
        f"{res.benchmark} class {res.nas_class}, {res.num_ranks} ranks, "
        f"{res.iterations} iteration(s):",
        f"  simulated time   : {res.time_s:.6f} s",
        f"  performance      : {res.mops_total:.0f} Mop/s (whole job)",
        f"  messages / bytes : {res.stats.messages} / {res.stats.bytes:.3e}",
    )
    return 0


def _cmd_traffic(args, telemetry) -> int:
    from repro.core.serialization import load_graph
    from repro.simulation.traffic import run_traffic

    graph = load_graph(args.graph) if args.graph else _default_graph()
    faults = None
    if args.fail_links or args.fail_switches:
        from repro.faults import FaultSchedule

        events = []
        if args.fail_links:
            events.extend(
                FaultSchedule.random_link_failures(
                    graph, args.fail_links, seed=args.fault_seed
                )
            )
        if args.fail_switches:
            events.extend(
                FaultSchedule.random_switch_failures(
                    graph, args.fail_switches, seed=args.fault_seed + 1
                )
            )
        faults = FaultSchedule(events)
    res = run_traffic(
        graph, args.pattern, messages_per_host=args.messages,
        message_bytes=args.bytes, offered_load=args.load,
        routing=args.routing, seed=args.seed,
        faults=faults, telemetry=telemetry,
    )
    lines = [
        f"pattern {res.pattern} on {res.num_hosts} hosts @ load {res.offered_load}:",
        f"  mean latency : {res.mean_latency_s * 1e6:.2f} us",
        f"  p99 latency  : {res.p99_latency_s * 1e6:.2f} us",
        f"  throughput   : {res.throughput_bytes_per_s / 1e9:.3f} GB/s aggregate",
    ]
    if faults is not None:
        lines.append(
            f"  faults       : {faults.num_down_events} injected, "
            f"{res.messages_dropped} message(s) dropped"
        )
    _emit(*lines)
    return 0


def _cmd_resilience(args, telemetry) -> int:
    from repro.analysis.report import format_table
    from repro.analysis.resilience import failure_sweep
    from repro.core.construct import random_host_switch_graph
    from repro.core.serialization import load_graph

    if args.graph:
        graph = load_graph(args.graph)
    elif args.n is not None and args.r is not None:
        from repro.core.moore import optimal_switch_count

        m = args.m if args.m is not None else optimal_switch_count(args.n, args.r)[0]
        graph = random_host_switch_graph(args.n, m, args.r, seed=args.graph_seed)
    else:
        _log.error("resilience needs either --graph or both --n and --r")
        return 2
    result = failure_sweep(
        graph,
        mode=args.mode,
        failures=args.failures,
        trials=args.trials,
        seed=args.seed,
        telemetry=telemetry,
    )
    if args.json:
        import json

        _emit(json.dumps(result.to_dict(), sort_keys=True))
        return 0
    pct = result.percentiles()
    rows = [
        ["baseline h-ASPL", f"{result.baseline_h_aspl:.4f}"],
        ["degraded h-ASPL (mean)", f"{result.h_aspl:.4f}"],
        ["degraded h-ASPL p50/p90/p99",
         f"{pct['p50']:.4f} / {pct['p90']:.4f} / {pct['p99']:.4f}"],
        ["disconnection probability",
         f"{100 * result.disconnection_probability:.1f}%"],
        ["reachable pairs (mean/min)",
         f"{result.mean_reachable_fraction:.4f} / {result.min_reachable_fraction:.4f}"],
    ]
    _emit(format_table(
        ["quantity", "value"], rows,
        title=(f"{args.mode} failure sweep: {args.failures} simultaneous, "
               f"{args.trials} trials"),
    ))
    return 0


def _cmd_campaign(args, telemetry) -> int:
    import json
    from pathlib import Path

    from repro.campaign import (
        CampaignStore,
        StoreError,
        format_report,
        format_status,
        load_spec,
        run_campaign,
    )

    spec = load_spec(json.loads(Path(args.spec).read_text()))

    if args.campaign_command == "status":
        if getattr(args, "rebuild_index", False):
            stats = CampaignStore(args.store, spec.name).rebuild_index()
            _emit(
                f"index rebuilt: {stats.entries} entr"
                f"{'y' if stats.entries == 1 else 'ies'}, "
                f"{stats.skipped} unreadable point(s) skipped"
            )
        _emit(format_status(spec, args.store))
        return 0
    if args.campaign_command == "report":
        _emit(format_report(spec, args.store, best=getattr(args, "best", False)))
        return 0

    if args.campaign_command == "resume":
        # Resume continues a campaign that already has a store on disk.
        try:
            CampaignStore(args.store, spec.name).load_spec()
        except StoreError as exc:
            _log.error("%s", exc)
            return 1
    _log.info(
        "campaign %s: %d point(s), store %s", spec.name, len(spec.points), args.store
    )
    result = run_campaign(
        spec,
        args.store,
        telemetry=telemetry,
        jobs=args.jobs,
        stop_after_checkpoints=args.stop_after_checkpoints,
    )
    _emit(result.summary())
    for outcome in result.outcomes:
        if outcome.status == "failed":
            _log.warning("point %s failed: %s", outcome.digest[:12], outcome.error)
    if result.interrupted:
        return 130
    return 1 if result.count("failed") else 0


def _cmd_serve(args, telemetry) -> int:
    import asyncio
    from pathlib import Path

    from repro.campaign.store import CampaignStore
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        store_root=Path(args.store),
        campaigns=tuple(args.campaigns) if args.campaigns else (),
        block_hosts=args.block_hosts,
        refine=not args.no_refine,
        refine_steps=args.refine_steps,
        refine_campaign=args.refine_campaign,
    )
    if args.rebuild_index:
        from repro.serve.service import TopologyService

        for name in TopologyService(config, telemetry=None).shard_names:
            store = CampaignStore(args.store, name)
            if store.dir.exists():
                stats = store.rebuild_index()
                _log.info(
                    "index %s: %d entries, %d skipped",
                    name, stats.entries, stats.skipped,
                )
    _log.info("serving %s on %s:%s", args.store, args.host, args.port)
    try:
        asyncio.run(
            run_server(
                config,
                host=args.host,
                port=args.port,
                port_file=Path(args.port_file) if args.port_file else None,
                telemetry=telemetry,
            )
        )
    except KeyboardInterrupt:
        _log.info("interrupted; drained and stopped")
        return 130
    return 0


def _cmd_query(args, telemetry) -> int:
    import json
    from pathlib import Path

    from repro.serve.client import ServerError, query

    port = args.port
    if args.port_file:
        port = int(Path(args.port_file).read_text().strip())
    try:
        answer = query(args.host, port, args.n, args.r, timeout=args.timeout)
    except (OSError, ServerError) as exc:
        _log.error("query failed: %s", exc)
        busy = isinstance(exc, ServerError) and exc.busy
        return 75 if busy else 1  # EX_TEMPFAIL: the server is draining
    if args.json:
        _emit(json.dumps(answer, sort_keys=True))
        return 0
    lines = [f"(n={args.n}, r={args.r}) source={answer.get('source')}"]
    if answer.get("h_aspl") is not None:
        lines.append(f"  h-ASPL: {answer['h_aspl']:.4f}")
    if answer.get("h_aspl_lower_bound") is not None:
        lines.append(f"  lower bound: {answer['h_aspl_lower_bound']:.4f}")
    if answer.get("digest"):
        lines.append(f"  digest: {answer['digest']}")
    if answer.get("campaign"):
        lines.append(f"  campaign: {answer['campaign']}")
    if answer.get("graph_path"):
        lines.append(f"  graph: {answer['graph_path']}")
    detail = answer.get("detail") or {}
    if detail:
        lines.append(
            "  plan: "
            + ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
        )
    if answer.get("refine"):
        lines.append(f"  refinement: {answer['refine']}")
    _emit(*lines)
    return 0


def _telemetry_regress(args) -> int:
    from repro.obs import detect_regressions, format_checks, load_bench

    checks = detect_regressions(
        load_bench(args.current)["benchmarks"],
        load_bench(args.baseline)["benchmarks"],
        names=args.names or None,
        tolerance=args.tolerance,
    )
    _emit(format_checks(checks, tolerance=args.tolerance))
    return 1 if any(c.regressed for c in checks) else 0


def _cmd_telemetry(args, telemetry) -> int:
    if args.telemetry_command == "regress":
        return _telemetry_regress(args)

    from repro.obs import SCHEMA, scan_jsonl, summarize_events

    records, problems = scan_jsonl(args.path)
    if args.telemetry_command == "validate":
        if problems:
            per_line: dict[int, int] = {}
            for lineno, message in problems:
                per_line[lineno] = per_line.get(lineno, 0) + 1
                _emit(f"line {lineno}: {message}")
            _emit(
                f"{args.path}: {len(problems)} problem(s) on "
                f"{len(per_line)} line(s)"
            )
            for lineno in sorted(per_line):
                _emit(f"  line {lineno}: {per_line[lineno]} problem(s)")
            return 1
        _emit(f"{args.path}: {len(records)} records, schema-valid ({SCHEMA})")
        return 0
    for lineno, message in problems:
        _log.warning("%s: line %d: %s", args.path, lineno, message)
    if args.telemetry_command == "analyze":
        from repro.obs import analyze_report

        _emit(analyze_report(records))
        return 0
    if args.telemetry_command == "flamegraph":
        from repro.obs import build_span_trees, folded_stacks, format_folded

        text = format_folded(folded_stacks(build_span_trees(records)))
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text + "\n")
            _log.info("folded stacks written to %s", args.out)
        else:
            _emit(text)
        return 0
    _emit(summarize_events(records))
    return 0


def _cmd_monitor(args, telemetry) -> int:
    from repro.obs import monitor

    monitor(args.path, once=args.once, interval=args.interval, cycles=args.cycles)
    return 0


_HANDLERS = {
    "bounds": _cmd_bounds,
    "compose": _cmd_compose,
    "solve": _cmd_solve,
    "odp": _cmd_odp,
    "topology": _cmd_topology,
    "campaign": _cmd_campaign,
    "simulate": _cmd_simulate,
    "traffic": _cmd_traffic,
    "resilience": _cmd_resilience,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "telemetry": _cmd_telemetry,
    "monitor": _cmd_monitor,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "log_level", "info"))
    telemetry = _telemetry_from_args(args)
    try:
        return _HANDLERS[args.command](args, telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
            _log.info("telemetry written to %s", args.telemetry_out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
