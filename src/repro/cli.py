"""``scan-sim``: the command-line interface to the SCAN reproduction.

Subcommands::

    scan-sim run          one simulation session, metrics to stdout
    scan-sim sweep        a Table-I-style grid sweep
    scan-sim submit       run one analysis request on the platform facade
    scan-sim serve        start the HTTP RPC front-end
    scan-sim table2       print the Table II recovery (profiling regression)
    scan-sim trace        inspect a Chrome trace written by ``run --trace-out``
    scan-sim policies     list every plugin registry and its entries
    scan-sim tiers        show a config's elastic tier stack
    scan-sim config-dump  print a named preset's resolved JSON config
    scan-sim kb           dump the knowledge plane facts, or diff snapshots

``run`` accepts the platform configuration three ways: individual flags
(the historical interface), ``--preset NAME`` (a registered preset), or
``--config FILE`` (a JSON dump, e.g. from ``config-dump``).  The three are
interchangeable: running a dumped preset file reproduces the preset run
byte-for-byte.  Out-of-tree plugin modules named in ``SCAN_SIM_PLUGINS``
(or ``scan_sim.plugins`` entry points) are imported before any subcommand
runs, so their registrations are visible everywhere.

Every subcommand takes ``--seed`` and prints deterministic results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from repro._version import __version__
from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.core.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The scan-sim argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="scan-sim",
        description="SCAN (ICPP 2015) reproduction: simulate smart "
        "scheduling of genomic pipelines on a hybrid cloud.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation session")
    _common_session_args(run)
    source = run.add_mutually_exclusive_group()
    source.add_argument(
        "--config", default=None, metavar="FILE",
        help="load the full platform configuration from a JSON file "
        "(see config-dump); individual session flags are ignored",
    )
    source.add_argument(
        "--preset", default=None, metavar="NAME",
        help="use a registered configuration preset (see `scan-sim "
        "policies`); individual session flags are ignored",
    )
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable summary (artifact/JSON output only)",
    )
    telem = run.add_argument_group("telemetry")
    telem.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (open in Perfetto / "
        "chrome://tracing); implies telemetry",
    )
    telem.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write Prometheus text-exposition metrics; implies telemetry",
    )

    sweep = sub.add_parser("sweep", help="sweep intervals x scaling policies")
    _common_session_args(sweep)
    sweep_source = sweep.add_mutually_exclusive_group()
    sweep_source.add_argument(
        "--config", default=None, metavar="FILE",
        help="load the full platform configuration from a JSON file "
        "(see config-dump); individual session flags are ignored",
    )
    sweep_source.add_argument(
        "--preset", default=None, metavar="NAME",
        help="use a registered configuration preset (see `scan-sim "
        "policies`); individual session flags are ignored",
    )
    sweep.add_argument(
        "--intervals", default="2.0,2.5,3.0",
        help="comma-separated mean inter-arrival intervals",
    )
    sweep.add_argument("--repetitions", type=int, default=2)
    sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the grid (1 = in-process serial, "
        "0 = one per CPU core); results are identical to serial",
    )
    streaming = sweep.add_argument_group(
        "streaming results (resumable sweeps; see DESIGN.md section 5h)"
    )
    streaming.add_argument(
        "--results-out", default=None, metavar="SPEC",
        help="stream every completed repetition to this result ledger: "
        "a .jsonl path, a .db/.sqlite path, or kind:path; overrides the "
        "config's results.store",
    )
    streaming.add_argument(
        "--resume", action="store_true",
        help="continue the sweep already in the result ledger: completed "
        "repetitions are not re-run, failed ones are retried; the final "
        "report is byte-identical to an uninterrupted run",
    )

    submit = sub.add_parser(
        "submit", help="submit one analysis to the platform facade"
    )
    submit.add_argument("--size-gb", type=float, default=100.0)
    submit.add_argument("--format", default="fastq")
    submit.add_argument("--name", default="cli-sample")

    serve = sub.add_parser("serve", help="start the HTTP RPC front-end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--preset", default=None, metavar="NAME",
                       help="platform preset (default: paper defaults)")
    serve.add_argument("--seed", type=int, default=None,
                       help="override the platform's root seed")
    service = serve.add_argument_group(
        "service plane (multi-tenant queue; see DESIGN.md section 5g)"
    )
    service.add_argument(
        "--service", action="store_true",
        help="attach the multi-tenant service plane "
        "(tenant queues, admission control, crash recovery)",
    )
    service.add_argument(
        "--store", default="memory", metavar="SPEC",
        help="queue persistence: 'memory', a .jsonl path, a .db/.sqlite "
        "path, or kind:path (default: memory)",
    )
    service.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="per-tenant queue capacity (default from ServiceConfig)",
    )
    service.add_argument(
        "--strategy", default=None, metavar="NAME",
        help="priority strategy (fifo, smallest_first, largest_first, "
        "weighted, deadline; see `scan-sim policies --kind priority`)",
    )
    service.add_argument(
        "--admission", default=None, choices=["reject", "shed_lowest"],
        help="what to do when a tenant queue is full",
    )
    service.add_argument(
        "--max-body-bytes", type=int, default=None, metavar="N",
        help="largest accepted HTTP request body",
    )

    sub.add_parser("table2", help="recover Table II from simulated profiling")

    trace = sub.add_parser(
        "trace", help="inspect a Chrome trace written by run --trace-out"
    )
    trace.add_argument("file", help="trace-event JSON file")
    trace.add_argument(
        "--top", type=int, default=10, help="how many longest spans to list"
    )

    policies = sub.add_parser(
        "policies", help="list plugin registries and their entries"
    )
    policies.add_argument(
        "--kind", default=None,
        help="show a single registry (allocation, scaling, reward, "
        "sharder, application, preset, ...)",
    )
    policies.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    workflows = sub.add_parser(
        "workflows",
        help="list registered workflow DAGs (steps, edges, formats)",
    )
    workflows.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    tiers = sub.add_parser(
        "tiers",
        help="show a config's elastic tier stack (backend, capacity, "
        "pricing, caps) in placement order",
    )
    tiers_source = tiers.add_mutually_exclusive_group()
    tiers_source.add_argument(
        "--config", default=None, metavar="FILE",
        help="load the full platform configuration from a JSON file "
        "(see config-dump)",
    )
    tiers_source.add_argument(
        "--preset", default=None, metavar="NAME",
        help="use a registered configuration preset (see `scan-sim "
        "policies`); defaults to the paper's two-tier stack",
    )
    tiers.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    dump = sub.add_parser(
        "config-dump",
        help="print the resolved JSON config of a registered preset",
    )
    dump.add_argument("preset", help="preset name (see `scan-sim policies`)")

    kb = sub.add_parser(
        "kb",
        help="dump the knowledge plane's facts table, or diff two snapshots",
    )
    kb.add_argument(
        "--diff", nargs=2, default=None, metavar=("BEFORE", "AFTER"),
        help="diff two snapshot JSON files (written by --snapshot-out) "
        "instead of running a session",
    )
    kb.add_argument("--preset", default=None, metavar="NAME",
                    help="run this preset's session before dumping")
    kb.add_argument("--estimates", default=None, metavar="PROVIDER",
                    help="estimate provider (static, adaptive)")
    kb.add_argument("--duration", type=float, default=None,
                    help="override the session duration (TU)")
    kb.add_argument("--seed", type=int, default=0)
    kb.add_argument("--json", action="store_true",
                    help="print the snapshot as JSON instead of a table")
    kb.add_argument(
        "--snapshot-out", default=None, metavar="PATH",
        help="also write the snapshot JSON here (feed to --diff later)",
    )

    return parser


def _common_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=600.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--interval", type=float, default=2.5)
    # No argparse `choices`: out-of-tree policies loaded via
    # SCAN_SIM_PLUGINS are addressable by name, and unknown names get a
    # ConfigurationError listing everything registered (see `policies`).
    parser.add_argument(
        "--allocation", default="greedy",
        help=f"allocation policy (built-in: "
             f"{', '.join(a.value for a in AllocationAlgorithm)})",
    )
    parser.add_argument(
        "--scaling", default="predictive",
        help=f"scaling policy (built-in: "
             f"{', '.join(s.value for s in ScalingAlgorithm)})",
    )
    parser.add_argument(
        "--reward", default="time",
        help=f"reward scheme (built-in: "
             f"{', '.join(r.value for r in RewardScheme)})",
    )
    parser.add_argument("--public-cost", type=float, default=50.0)
    parser.add_argument("--size-unit-gb", type=float, default=1.0)
    parser.add_argument(
        "--estimates", default=None, metavar="PROVIDER",
        help="estimate provider behind the knowledge plane (built-in: "
        "static, adaptive); overrides --preset/--config too",
    )
    parser.add_argument(
        "--workflow", default=None, metavar="NAME",
        help="run a registered workflow DAG instead of the application's "
        "linear chain (see `scan-sim workflows`); overrides "
        "--preset/--config too",
    )
    chaos = parser.add_argument_group("chaos / resilience")
    chaos.add_argument(
        "--mtbf", type=float, default=None,
        help="mean time between VM crashes (TU); default: no crashes",
    )
    chaos.add_argument(
        "--p-boot-fail", type=float, default=0.0,
        help="probability a deployed VM dies during boot",
    )
    chaos.add_argument(
        "--p-deploy-fail", type=float, default=0.0,
        help="probability a CELAR deploy bounces transiently",
    )
    chaos.add_argument(
        "--p-straggler", type=float, default=0.0,
        help="probability a task execution straggles (heavy-tailed slowdown)",
    )
    chaos.add_argument(
        "--p-corrupt", type=float, default=0.0,
        help="probability a completed stage is retroactively corrupt",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=0,
        help="retry budget per stage task (0 = retry forever)",
    )
    chaos.add_argument(
        "--no-resilience", action="store_true",
        help="disable retries/speculation/breaker (chaos ablation baseline)",
    )


def _policy_name(enum_cls, name):
    """Coerce *name* to its enum when built-in, else keep the raw string.

    Raw strings flow through ``with_overrides`` untouched and resolve at
    the registry, so plugin policies work from the command line.
    """
    try:
        return enum_cls(name)
    except ValueError:
        return name


def _session_config(args: argparse.Namespace) -> PlatformConfig:
    return PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": args.duration},
        workload={
            "mean_interarrival": args.interval,
            "size_unit_gb": args.size_unit_gb,
        },
        reward={"scheme": _policy_name(RewardScheme, args.reward)},
        cloud={"public_core_cost": args.public_cost},
        scheduler={
            "allocation": _policy_name(AllocationAlgorithm, args.allocation),
            "scaling": _policy_name(ScalingAlgorithm, args.scaling),
        },
        faults={
            "mtbf_tu": args.mtbf,
            "p_boot_fail": args.p_boot_fail,
            "p_deploy_fail": args.p_deploy_fail,
            "p_straggler": args.p_straggler,
            "p_corrupt": args.p_corrupt,
        },
        resilience={
            "enabled": not args.no_resilience,
            "max_attempts": args.max_attempts,
        },
    )


def _apply_estimates_flag(
    config: PlatformConfig, args: argparse.Namespace
) -> PlatformConfig:
    """Overlay ``--estimates`` onto *config* (wins over preset/file)."""
    provider = getattr(args, "estimates", None)
    if provider is None:
        return config
    return config.with_overrides(knowledge={"provider": provider})


def _apply_workflow_flag(
    config: PlatformConfig, args: argparse.Namespace
) -> PlatformConfig:
    """Overlay ``--workflow`` onto *config* (wins over preset/file)."""
    workflow = getattr(args, "workflow", None)
    if workflow is None:
        return config
    return config.with_overrides(workflow=workflow)


def _resolve_run_config(args: argparse.Namespace) -> PlatformConfig:
    """run's config, from --config / --preset / individual flags."""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {args.config!r}: {exc}"
            ) from exc
        return PlatformConfig.from_json(text).validate()
    if args.preset is not None:
        from repro.core.presets import make_preset

        return make_preset(args.preset)
    return _session_config(args)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one simulation session and print its metrics."""
    from repro.sim.session import SimulationSession

    config = _apply_workflow_flag(
        _apply_estimates_flag(_resolve_run_config(args), args), args
    )
    if args.trace_out or args.metrics_out:
        config = config.with_overrides(telemetry={"enabled": True})
    session = SimulationSession(config)
    result = session.run(seed=args.seed)
    _write_telemetry_artifacts(session, args)
    if args.json:
        print(json.dumps(result.as_dict(), default=str, indent=2))
    elif not args.quiet:
        print(f"completed runs      : {result.completed_runs}/{result.submitted_runs}")
        print(f"mean profit per run : {result.mean_profit_per_run:.1f} CU")
        print(f"reward-to-cost      : {result.reward_to_cost:.2f}")
        print(f"mean latency        : {result.mean_latency:.1f} TU")
        print(f"latency p95         : {result.latency_p95:.1f} TU")
        print(f"private utilization : {result.private_utilization:.2f}")
        print(f"hires (priv/pub)    : {result.hires_private}/{result.hires_public}")
        print(f"repools             : {result.repools}")
        if any(result.resilience_counters().values()):
            from repro.sim.report import render_resilience_summary

            print(render_resilience_summary(result, title="chaos / resilience"))
    return 0


def _write_telemetry_artifacts(session, args: argparse.Namespace) -> None:
    """Write trace / metrics files from the session's hub.

    Paths are reported on stderr so ``--json`` stdout stays parseable.
    """
    hub = getattr(session, "telemetry", None)
    if hub is None:
        return
    if args.trace_out and hub.tracer is not None:
        hub.tracer.write(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out and hub.metrics is not None:
        hub.metrics.write(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)


def _interval(token: str) -> float:
    """One ``--intervals`` entry as a float; a bad token is a config error."""
    try:
        return float(token)
    except ValueError:
        raise ConfigurationError(
            f"--intervals: {token.strip()!r} is not a number"
        ) from None


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep intervals x scaling policies and print the series.

    ``--jobs N`` fans the grid across a process pool; the printed table is
    identical to the in-process run (see :func:`repro.sim.sweep.run_sweep`).
    ``--results-out`` streams every completed repetition to an append-only
    ledger and makes the sweep resumable with ``--resume`` after a crash
    or kill -- again with a byte-identical final table (see
    :mod:`repro.sim.results`).
    """
    from repro.sim.report import render_series, rows_to_series
    from repro.sim.sweep import SweepSpec, run_sweep

    intervals = [_interval(x) for x in args.intervals.split(",") if x.strip()]
    if not intervals:
        print("scan-sim: no intervals given", file=sys.stderr)
        return 2
    spec = SweepSpec(
        allocation=(_policy_name(AllocationAlgorithm, args.allocation),),
        scaling=tuple(ScalingAlgorithm),
        mean_interarrival=tuple(intervals),
        reward_scheme=(_policy_name(RewardScheme, args.reward),),
        public_core_cost=(args.public_cost,),
    )
    base = _apply_workflow_flag(
        _apply_estimates_flag(_resolve_run_config(args), args), args
    )
    store_spec = args.results_out or base.results.store or None
    if args.resume and store_spec is None:
        print(
            "scan-sim: --resume needs a result ledger; pass --results-out "
            "or a config with results.store set",
            file=sys.stderr,
        )
        return 2
    store = None
    if store_spec is not None:
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        store = ResultStore(
            open_ledger(store_spec, fsync=base.results.fsync)
        )
    try:
        rows = run_sweep(
            base,
            spec,
            repetitions=args.repetitions,
            base_seed=args.seed,
            jobs=args.jobs,
            results=store,
            resume=args.resume,
        )
    finally:
        if store is not None:
            store.close()
    series = rows_to_series(rows, "scaling", "mean_profit_per_run")
    print(
        render_series(
            "interval",
            [f"{x:.2f}" for x in intervals],
            series,
            title="mean profit per run by horizontal-scaling policy",
            precision=0,
        )
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one analysis to the platform facade and run it."""
    from repro.core.platform import SCANPlatform
    from repro.genomics.datasets import DataFormat, DatasetDescriptor

    try:
        fmt = DataFormat(args.format)
    except ValueError:
        print(f"scan-sim: unknown format {args.format!r}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.size_gb) and args.size_gb > 0):
        print(
            f"scan-sim: size_gb must be positive and finite, got {args.size_gb}",
            file=sys.stderr,
        )
        return 2
    platform = SCANPlatform(PlatformConfig.paper_defaults())
    platform.bootstrap_knowledge()
    request = platform.submit_analysis(
        DatasetDescriptor.from_size(args.name, fmt, args.size_gb)
    )
    print(f"advice : {request.brokered.advice}")
    platform.run_until_complete(request)
    print(f"latency: {request.latency():.1f} TU")
    print(f"output : {request.merged_output}")
    for key, value in platform.metrics().items():
        print(f"  {key:20s} {value:.2f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the HTTP RPC front-end and block until Ctrl-C."""
    import dataclasses

    from repro.core.platform import SCANPlatform
    from repro.core.rpc import ScanRpcServer

    if args.preset is not None:
        from repro.core.presets import make_preset

        config = make_preset(args.preset)
    else:
        config = PlatformConfig.paper_defaults()
    if args.seed is not None:
        config = dataclasses.replace(
            config,
            simulation=dataclasses.replace(config.simulation, seed=args.seed),
        )
    platform = SCANPlatform(config)
    platform.bootstrap_knowledge()
    plane = None
    if args.service:
        from repro.service import ServiceConfig, ServicePlane

        overrides = {
            key: value
            for key, value in (
                ("tenant_capacity", args.capacity),
                ("priority_strategy", args.strategy),
                ("admission", args.admission),
                ("store", args.store),
                ("max_body_bytes", args.max_body_bytes),
            )
            if value is not None
        }
        plane = ServicePlane(platform, config=ServiceConfig(**overrides))
        recovered = plane.recovered
        if recovered.accepted:
            print(
                f"recovered {len(recovered.queued)} queued job(s) "
                f"({len(recovered.interrupted)} interrupted) and "
                f"{len(recovered.finished)} finished from {args.store}"
            )
    server = ScanRpcServer(platform, host=args.host, port=args.port, plane=plane)
    server.start()
    mode = "service plane" if plane is not None else "platform RPC"
    print(f"SCAN {mode} listening on {server.address} (Ctrl-C to stop)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        platform.close()
    return 0


def cmd_table2(_args: argparse.Namespace) -> int:
    """Print Table II recovered from simulated profiling."""
    from repro.apps.gatk import GATK_STAGES, build_gatk_model
    from repro.knowledge.kb import SCANKnowledgeBase
    from repro.sim.report import render_table

    kb = SCANKnowledgeBase()
    kb.bootstrap_from_model(build_gatk_model())
    rows = [
        [i + 1, name, a, fit.a, b, fit.b, c, fit.c]
        for i, ((name, a, b, c, _r), fit) in enumerate(
            zip(GATK_STAGES, kb.fitted_stage_models("gatk"))
        )
    ]
    print(
        render_table(
            ["stage", "tool", "a", "a_fit", "b", "b_fit", "c", "c_fit"],
            rows,
            title="Table II recovered by regression over simulated profiling",
            precision=2,
        )
    )
    return 0


def _read_trace_events(path: str) -> list:
    """The event list of a Chrome trace file (ValueError if malformed)."""
    with open(path) as fh:
        data = json.load(fh)
    events = data.get("traceEvents", []) if isinstance(data, dict) else data
    if not isinstance(events, list) or not all(
        isinstance(ev, dict) and isinstance(ev.get("args", {}), dict)
        for ev in events
    ):
        raise ValueError("expected a list of trace-event objects")
    for ev in events:
        if ev.get("ph") == "X" and not all(
            isinstance(ev.get(key, 0.0), (int, float)) for key in ("ts", "dur")
        ):
            raise ValueError(f"span {ev.get('name')!r} has a non-numeric ts/dur")
    return events


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarise a Chrome trace-event JSON file."""
    from repro.sim.report import render_table

    try:
        events = _read_trace_events(args.file)
    except (OSError, ValueError) as exc:
        print(
            f"scan-sim: cannot read trace {args.file!r}: {exc}",
            file=sys.stderr,
        )
        return 2

    lanes: dict[int, str] = {}
    counts: dict[str, int] = {}
    spans = []
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                lanes[ev.get("tid", 0)] = ev.get("args", {}).get("name", "")
            continue
        cat = ev.get("cat", "?")
        counts[cat] = counts.get(cat, 0) + 1
        if ph == "X":
            spans.append(ev)

    print(
        render_table(
            ["category", "events"],
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])),
            title=f"{args.file}: {sum(counts.values())} events, "
            f"{len(lanes)} lanes",
        )
    )
    spans.sort(key=lambda ev: -ev.get("dur", 0.0))
    rows = [
        [
            ev.get("name", "?"),
            ev.get("cat", "?"),
            lanes.get(ev.get("tid", 0), str(ev.get("tid", 0))),
            f"{ev.get('ts', 0.0) / 1e6:.3f}",
            f"{ev.get('dur', 0.0) / 1e6:.3f}",
        ]
        for ev in spans[: max(args.top, 0)]
    ]
    if rows:
        print()
        print(
            render_table(
                ["span", "cat", "lane", "start_tu", "dur_tu"],
                rows,
                title=f"top {len(rows)} longest spans",
            )
        )
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    """List every plugin registry (or one ``--kind``) and its entries."""
    from repro.core.plugins import all_registries, get_registry

    if args.kind is not None:
        registries = {args.kind: get_registry(args.kind)}
    else:
        registries = all_registries()
    if args.json:
        print(
            json.dumps(
                {kind: reg.names() for kind, reg in registries.items()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for kind, registry in registries.items():
        print(f"{kind} ({len(registry)}):")
        for name in registry.names():
            print(f"  {name}")
    return 0


def cmd_workflows(args: argparse.Namespace) -> int:
    """List every registered workflow spec with its compiled shape.

    Each workflow is compiled (against the default application registry)
    so the listing shows what the scheduler would actually run: node
    count, chain-or-DAG shape, entry/terminal steps, and per-step
    application, data formats and edges.
    """
    from repro.workflows.compiled import compile_spec
    from repro.workflows.library import WORKFLOWS, make_workflow

    summaries = []
    for name in WORKFLOWS.names():
        spec = make_workflow(name)
        compiled = compile_spec(spec)
        summary = compiled.describe()
        summary["registered_as"] = name
        summary["step_edges"] = sorted(
            [parent, child]
            for parent in spec.topological_order
            for child in spec.children(parent)
        )
        summary["step_apps"] = {
            step_name: {
                "app": step.app,
                "input": spec.app_of(step_name).input_format.value,
                "output": spec.app_of(step_name).output_format.value,
                "output_ratio": step.output_ratio,
            }
            for step_name, step in spec.steps.items()
        }
        summaries.append(summary)
    if args.json:
        print(json.dumps(summaries, indent=2, sort_keys=True))
        return 0
    for summary in summaries:
        shape = "chain" if summary["chain"] else "dag"
        print(
            f"{summary['registered_as']}: {summary['name']} "
            f"({summary['nodes']} nodes, {shape})"
        )
        for step_name, info in sorted(summary["step_apps"].items()):
            print(
                f"  step {step_name}: {info['app']} "
                f"[{info['input']} -> {info['output']}, "
                f"ratio {info['output_ratio']}]"
            )
        for parent, child in summary["step_edges"]:
            print(f"  edge {parent} -> {child}")
    return 0


def cmd_tiers(args: argparse.Namespace) -> int:
    """Dump the configured tier stack in placement order.

    Nothing is simulated: the stack is built against a throwaway
    environment purely for its configuration view, so this works for
    any preset or dumped config file -- including out-of-tree tier
    backends registered via plugins.
    """
    from repro.cloud.tiers import tier_stack_description

    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = PlatformConfig.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(
                f"scan-sim: cannot read config {args.config!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    elif args.preset is not None:
        from repro.core.presets import make_preset

        config = make_preset(args.preset)
    else:
        config = PlatformConfig.paper_defaults()
    stack = tier_stack_description(config.cloud)
    if args.json:
        print(json.dumps(
            {"placement": config.cloud.placement, "tiers": stack},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"placement: {config.cloud.placement}")
    for position, desc in enumerate(stack):
        kind = "elastic" if desc["elastic"] else "base"
        print(
            f"  [{position}] {desc['name']} ({desc['backend']}, {kind}): "
            f"{desc['capacity_cores']} cores "
            f"@ {desc['core_cost_per_tu']} CU/core/TU"
        )
        for cap, value in sorted(desc["caps"].items()):
            print(f"        {cap} = {value}")
    return 0


def cmd_config_dump(args: argparse.Namespace) -> int:
    """Print one preset's fully-resolved config as round-trippable JSON."""
    from repro.core.presets import make_preset

    print(make_preset(args.preset).to_json())
    return 0


def cmd_kb(args: argparse.Namespace) -> int:
    """Dump the knowledge plane's facts table, or diff two snapshots.

    Without ``--diff`` this runs one session and prints every fact the
    plane holds afterwards (stage, coefficients, provenance, samples,
    confidence, epoch).  With ``--diff BEFORE AFTER`` it compares two
    snapshot files written by ``--snapshot-out`` and prints the changed
    facts -- a poor man's ``watch`` over the refit loop.
    """
    from repro.knowledge.plane import diff_snapshots

    if args.diff is not None:
        snapshots = []
        for path in args.diff:
            try:
                with open(path) as fh:
                    snapshots.append(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                print(
                    f"scan-sim: cannot read snapshot {path!r}: {exc}",
                    file=sys.stderr,
                )
                return 2
        lines = diff_snapshots(snapshots[0], snapshots[1])
        if not lines:
            print("no changes")
        for line in lines:
            print(line)
        return 0

    from repro.sim.session import SimulationSession

    config = PlatformConfig.paper_defaults()
    if args.preset is not None:
        from repro.core.presets import make_preset

        config = make_preset(args.preset)
    config = _apply_estimates_flag(config, args)
    if args.duration is not None:
        config = config.with_overrides(simulation={"duration": args.duration})
    session = SimulationSession(config)
    session.run(seed=args.seed)
    plane = session.plane
    if plane is None:
        print("scan-sim: no knowledge plane in this session", file=sys.stderr)
        return 2
    # The static provider reads the workflow's node models directly and
    # never writes the plane; seed the nodes without facts now so the
    # dump shows the facts the estimates actually came from.
    plane.seed_from_workflow(session.scheduler.workflow)
    snapshot = plane.snapshot()
    if args.snapshot_out:
        with open(args.snapshot_out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"snapshot written to {args.snapshot_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    from repro.sim.report import render_table

    rows = [
        [
            fact["app"],
            fact["stage"],
            f"{fact['a']:.4f}",
            f"{fact['b']:.4f}",
            "-" if fact["c"] is None else f"{fact['c']:.4f}",
            fact["provenance"],
            fact["samples"],
            f"{fact['confidence']:.2f}",
            fact["epoch"],
        ]
        for fact in snapshot["facts"]
    ]
    print(
        render_table(
            ["app", "stage", "a", "b", "c", "provenance",
             "samples", "confidence", "epoch"],
            rows,
            title=f"knowledge plane @ epoch {snapshot['epoch']} "
            f"({len(rows)} facts)",
        )
    )
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "submit": cmd_submit,
    "serve": cmd_serve,
    "table2": cmd_table2,
    "trace": cmd_trace,
    "policies": cmd_policies,
    "workflows": cmd_workflows,
    "tiers": cmd_tiers,
    "config-dump": cmd_config_dump,
    "kb": cmd_kb,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {seed}")
        from repro.core.plugins import load_plugins

        load_plugins()
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"scan-sim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
