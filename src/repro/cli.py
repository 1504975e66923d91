"""Command-line interface: experiments and the serving runtime.

Usage::

    python -m repro list
    python -m repro run fig5 --workload worldcup
    python -m repro run fig6 --full
    python -m repro run all
    python -m repro serve --trace demand.csv --deadline-ms 500 \\
        --checkpoint run.ckpt --events run_events.jsonl
    python -m repro replay run_events.jsonl

``run`` prints the same rows the corresponding paper figure plots (see
EXPERIMENTS.md for recorded outputs); ``serve`` drives the
fault-tolerant streaming runtime over an hourly-CSV trace (see
docs/SERVING.md); ``replay`` renders a recorded serve event log.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.evaluation import ExperimentScale, experiments


def _registry(scale: ExperimentScale, jobs: "int | None" = None):
    windows = (2, 4, 6, 8, 10) if scale.full else (2, 4, 6)
    return {
        "table1": lambda a: experiments.table1_electricity(),
        "table2": lambda a: experiments.table2_bandwidth(),
        "fig4": lambda a: experiments.fig4_workloads(scale),
        "fig5": lambda a: experiments.fig5_cost_no_prediction(
            scale, a.workload, jobs=jobs
        ),
        "fig6": lambda a: experiments.fig6_ratio_vs_epsilon(
            scale, a.workload, jobs=jobs
        ),
        "fig7": lambda a: experiments.fig7_sla(
            scale, a.workload, lcp_lookback=12, jobs=jobs
        ),
        "fig8": lambda a: experiments.fig8_prediction_window(
            scale, a.workload, windows=windows, jobs=jobs
        ),
        "fig9": lambda a: experiments.fig9_noisy_prediction(
            scale, a.workload, windows=windows, jobs=jobs
        ),
        "fig10": lambda a: experiments.fig10_error_sweep(scale, a.workload, jobs=jobs),
        "thm23": lambda a: experiments.theorem23_adversarial(),
        "ntier": lambda a: experiments.ntier_generalization(
            horizon=48 if scale.full else 24
        ),
    }


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="enable the observability layer for this run and write "
        "Prometheus-format metrics to PATH (plus a JSONL span trace "
        "to PATH.trace.jsonl); see docs/OBSERVABILITY.md",
    )


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="enable the metrics registry and stream delta-encoded "
        "snapshots of it into a per-process sink under DIR; follow "
        "live with 'repro telemetry watch DIR' "
        "(see docs/OBSERVABILITY.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures, or serve "
        "a workload trace through the streaming runtime.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run.add_argument(
        "--workload",
        choices=["wikipedia", "worldcup"],
        default="wikipedia",
        help="workload regime for the figure experiments",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="paper scale (18x48 clouds, 500/600 h) instead of reduced",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="render the experiment's series as terminal charts",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print per-step solver statistics (wall time, Newton "
        "iterations, warm-start hit rate) for each algorithm run",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run sweep points on N worker processes (results and "
        "--stats output are identical to a serial run)",
    )
    _add_metrics_flag(run)
    _add_telemetry_flag(run)

    serve = sub.add_parser(
        "serve",
        help="stream a workload trace through the fault-tolerant runtime",
    )
    serve.add_argument(
        "--trace", required=True, help="hourly demand trace (CSV)"
    )
    serve.add_argument(
        "--column", type=int, default=-1, help="CSV column holding the counts"
    )
    serve.add_argument(
        "--horizon", type=int, default=None, metavar="T",
        help="serve at most the first T slots of the trace",
    )
    serve.add_argument("--k", type=int, default=2, help="SLA edges per tier-1 cloud")
    serve.add_argument(
        "--n-tier2", type=int, default=6, help="tier-2 clouds (<= 18)"
    )
    serve.add_argument(
        "--n-tier1", type=int, default=12, help="tier-1 clouds (<= 48)"
    )
    serve.add_argument(
        "--epsilon", type=float, default=1e-2, help="regularization epsilon"
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-slot solve budget in milliseconds",
    )
    serve.add_argument(
        "--enforce", choices=["thread", "cooperative"], default="thread",
        help="deadline enforcement: abandon over-budget solves (thread) "
        "or record misses only (cooperative)",
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file; with --resume, continue a killed run from it",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="write the checkpoint every N slots (default 1)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists",
    )
    serve.add_argument(
        "--events", default=None, metavar="PATH",
        help="write the JSONL event log here (see 'repro replay')",
    )
    serve.add_argument(
        "--record-feed", default=None, metavar="PATH",
        help="also record the slot stream as a replayable JSONL feed",
    )
    serve.add_argument(
        "--inject-stall", type=float, default=0.0, metavar="P",
        help="inject solver stalls with per-slot probability P",
    )
    serve.add_argument(
        "--inject-fail", type=float, default=0.0, metavar="P",
        help="inject solver failures with per-slot probability P",
    )
    serve.add_argument(
        "--inject-seed", type=int, default=0, help="fault-injection seed"
    )
    serve.add_argument(
        "--watch", action="store_true",
        help="repaint a live top-style console view (per-phase latency, "
        "ops counters, health gauges) after every slot",
    )
    serve.add_argument(
        "--alert", action="append", default=None, metavar="RULE",
        help="health alert rule 'metric>threshold[:slots]', e.g. "
        "'competitive_ratio>1.5:3'; fires an 'alert' event into the "
        "event log (may be given multiple times)",
    )
    serve.add_argument(
        "--slo-target", type=float, default=0.1, metavar="FRAC",
        help="allowed deadline-miss fraction; the health burn-rate "
        "gauge is the windowed miss rate divided by this (default 0.1)",
    )
    serve.add_argument(
        "--decisions", default=None, metavar="PATH",
        help="write the per-slot decisions as one .npy stack "
        "(byte-comparable across runs, e.g. bounded run + resume vs "
        "uninterrupted)",
    )
    _add_metrics_flag(serve)
    _add_telemetry_flag(serve)

    replay = sub.add_parser(
        "replay", help="render a recorded serve event log"
    )
    replay.add_argument("events", help="JSONL event log written by 'repro serve'")
    _add_metrics_flag(replay)

    telem = sub.add_parser(
        "telemetry",
        help="watch or merge a telemetry directory written with --telemetry",
    )
    telem.add_argument(
        "action", choices=["watch", "merge"],
        help="'watch' repaints a live merged view; 'merge' aggregates "
        "every sink once and renders/exports the combined registry",
    )
    telem.add_argument("dir", help="telemetry directory (the --telemetry DIR)")
    telem.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="watch refresh interval in seconds (default 1.0)",
    )
    telem.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop the watch after N repaints (default: until Ctrl-C)",
    )
    telem.add_argument(
        "--out", default=None, metavar="PATH",
        help="merge only: also write the merged registry as "
        "Prometheus text to PATH",
    )

    scenario = sub.add_parser(
        "scenario",
        help="list, describe or run the named workload scenarios "
        "(deterministic continent-scale corpus; see docs/SCENARIOS.md)",
    )
    scenario.add_argument(
        "action", choices=["list", "describe", "run"],
        help="'list' the registry, 'describe' one scenario (details, "
        "shapes, golden fingerprints), or 'run' it through evaluation "
        "or the serve runtime",
    )
    scenario.add_argument(
        "name", nargs="?", default=None,
        help="scenario name (required for describe/run; see 'list')",
    )
    scenario.add_argument(
        "--size", choices=["smoke", "full"], default="smoke",
        help="size point: 'smoke' (tiny, seconds) or 'full' "
        "(continent scale, hundreds of edge clouds)",
    )
    scenario.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's default seed (golden fingerprints "
        "are pinned at the default)",
    )
    scenario.add_argument(
        "--mode", choices=["eval", "serve"], default="eval",
        help="'eval' scores the algorithm suite on the scenario; "
        "'serve' streams it through the serve runtime",
    )
    scenario.add_argument(
        "--horizon", type=int, default=None, metavar="T",
        help="run only the first T slots of the built scenario",
    )
    scenario.add_argument(
        "--epsilon", type=float, default=1e-2, help="regularization epsilon"
    )
    scenario.add_argument(
        "--offline", action="store_true",
        help="eval mode: include the offline optimum even at full size "
        "(slow; smoke size includes it by default)",
    )
    scenario.add_argument(
        "--decisions", default=None, metavar="PATH",
        help="serve mode: write per-slot decisions as one .npy stack "
        "(byte-comparable across runs)",
    )
    _add_metrics_flag(scenario)
    _add_telemetry_flag(scenario)
    return parser


def _cmd_scenario(args) -> int:
    """``repro scenario list|describe|run [NAME]``."""
    from repro import scenarios

    if args.action == "list":
        rows = [
            (s.name, f"{s.tiers}-tier", "yes" if s.serveable else "no", s.summary)
            for s in scenarios.all_scenarios()
        ]
        from repro.evaluation.reporting import format_table

        print(format_table(["scenario", "model", "serveable", "summary"], rows))
        return 0

    if args.name is None:
        print(f"scenario {args.action} requires a NAME; try 'scenario list'",
              file=sys.stderr)
        return 2
    try:
        scenario = scenarios.get_scenario(args.name)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.action == "describe":
        built = scenario.build(args.size, args.seed)
        print(f"{scenario.name}: {scenario.summary}")
        print()
        print(scenario.details)
        print()
        print(f"model:       {scenario.tiers}-tier"
              + ("" if scenario.serveable else " (evaluation-only)"))
        print(f"size:        {built.size} ({built.describe_shape()})")
        print(f"seed:        {built.seed}"
              + (" (default)" if args.seed is None else ""))
        for note in built.notes:
            print(f"note:        {note}")
        print(f"fingerprint: {built.fingerprint()}")
        return 0

    # run
    built = scenario.build(args.size, args.seed)
    print(f"{built.name} [{built.size}, seed {built.seed}]: "
          f"{built.describe_shape()}")
    print(f"fingerprint: {built.fingerprint()}")
    if args.mode == "eval":
        rows = scenarios.evaluate(
            built,
            epsilon=args.epsilon,
            include_offline=True if args.offline else None,
        )
        print(scenarios.render_evaluation(rows))
        return 0

    # serve mode
    if not scenario.serveable:
        print(f"scenario {scenario.name!r} is evaluation-only "
              "(N-tier model); use --mode eval", file=sys.stderr)
        return 2
    from repro.core import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.serve import InstanceSource, ServeConfig, ServeLoop

    instance = built.instance
    if args.horizon is not None:
        if not (1 <= args.horizon <= instance.horizon):
            print(f"--horizon must be in [1, {instance.horizon}]",
                  file=sys.stderr)
            return 2
        instance = instance.slice(0, args.horizon)
    source = InstanceSource(instance)
    controller = RegularizedOnline(SubproblemConfig(epsilon=args.epsilon))
    try:
        report = ServeLoop(controller, source, ServeConfig()).run()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.describe())
    if args.decisions and report.trajectory is not None:
        _write_decisions(args.decisions, report.trajectory)
        print(f"decisions: {args.decisions}")
    return 0 if report.summary["unserved"] == 0 and report.error is None else 1


def _write_decisions(path: str, trajectory) -> None:
    """Dump merged decisions as one deterministic ``.npy`` stack.

    ``np.save`` of a plain float array is a pure function of the data,
    so two runs that made the same decisions write byte-identical
    files that ``cmp`` can compare.
    """
    import numpy as np

    stack = np.stack([trajectory.x, trajectory.y, trajectory.s])
    with open(path, "wb") as fh:
        np.save(fh, stack)


def _cmd_serve(args) -> int:
    """Run the streaming serve loop over an hourly-CSV trace."""
    from repro.core import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.obs import metrics as obs_metrics
    from repro.obs.health import HealthMonitor
    from repro.serve import (
        EventLog,
        FaultInjector,
        ServeConfig,
        ServeLoop,
        TraceCSVSource,
        write_feed,
    )

    try:
        source = TraceCSVSource(
            args.trace,
            column=args.column,
            horizon=args.horizon,
            k=args.k,
            n_tier2=args.n_tier2,
            n_tier1=args.n_tier1,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    controller = RegularizedOnline(SubproblemConfig(epsilon=args.epsilon))
    injector = None
    if args.inject_stall or args.inject_fail:
        injector = FaultInjector(
            stall_prob=args.inject_stall,
            fail_prob=args.inject_fail,
            seed=args.inject_seed,
        )
    try:
        config = ServeConfig(
            deadline_s=(
                None if args.deadline_ms is None else args.deadline_ms / 1e3
            ),
            enforce=args.enforce,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
            injector=injector,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.record_feed:
        n = write_feed(args.record_feed, source)
        print(f"recorded {n}-slot feed to {args.record_feed}")
    try:
        health = HealthMonitor(
            source.network,
            rules=args.alert or [],
            slo_target=args.slo_target,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    on_slot = None
    if args.watch:
        from repro.obs.telemetry import CLEAR_SCREEN, render_watch

        clear = sys.stdout.isatty()

        def on_slot(loop, outcome) -> None:
            reg = obs_metrics.active()
            if reg is None:
                return
            frame = render_watch(
                reg.snapshot(), title=f"serve slot {loop.session.t}"
            )
            sys.stdout.write((CLEAR_SCREEN if clear else "") + frame + "\n")
            sys.stdout.flush()

    with EventLog(args.events) as log:
        try:
            report = _run_serve(
                args, controller, source, config, log, health, on_slot
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    print(report.describe())
    for alert in health.alerts:
        print(
            f"ALERT t={alert['t']}: {alert['rule']} "
            f"(value {alert['value']:.4g})"
        )
    if args.decisions and report.trajectory is not None:
        _write_decisions(args.decisions, report.trajectory)
        print(f"decisions: {args.decisions}")
    if args.events:
        print(f"event log: {args.events}")
    return 0 if report.summary["unserved"] == 0 and report.error is None else 1


def _run_serve(args, controller, source, config, log, health, on_slot):
    from repro.serve import ServeLoop

    if args.resume and args.checkpoint and Path(args.checkpoint).exists():
        loop = ServeLoop.resume(
            controller, source, args.checkpoint, config=config,
            event_log=log, health=health, on_slot=on_slot,
        )
        print(f"resumed from {args.checkpoint} at slot {loop.session.t}")
    else:
        loop = ServeLoop(
            controller, source, config=config, event_log=log,
            health=health, on_slot=on_slot,
        )
    return loop.run()


def _cmd_telemetry(args) -> int:
    """``repro telemetry watch|merge DIR``."""
    from repro.obs import telemetry as obs_telemetry

    if args.action == "watch":
        obs_telemetry.watch(
            args.dir,
            interval_s=args.interval,
            iterations=args.iterations,
            clear=sys.stdout.isatty(),
        )
        return 0
    from repro.evaluation.reporting import render_metrics

    aggregator = obs_telemetry.TelemetryAggregator(args.dir)
    records = aggregator.poll()
    snapshot = aggregator.merged_snapshot()
    if not snapshot["metrics"]:
        print(f"no telemetry found under {args.dir}", file=sys.stderr)
        return 1
    print(
        f"merged {records} records from {len(aggregator.sink_ids())} "
        f"sinks under {args.dir}"
    )
    print(render_metrics(snapshot))
    if args.out:
        from repro.obs.export import write_prometheus

        write_prometheus(snapshot, args.out)
        print(f"merged metrics: {args.out}")
    return 0


def _cmd_replay(args) -> int:
    """Render a recorded serve event log."""
    from repro.evaluation.reporting import render_serve_events
    from repro.serve import read_events
    from repro.serve.events import publish_event

    events = read_events(args.events)
    if not events:
        print(f"no events found in {args.events}", file=sys.stderr)
        return 1
    # Re-aggregate the recorded events into the metrics registry (a
    # no-op unless --metrics enabled it), so a replayed log exports the
    # same serve_* counters the live run would have.
    for event in events:
        publish_event(event)
    print(render_serve_events(events))
    return 0


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    """Route a parsed command line to its command handler."""
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "list":
        scale = ExperimentScale.from_env()
        for name in _registry(scale):
            print(name)
        return 0

    scale = (
        ExperimentScale(None, None, 500, 600, True)
        if getattr(args, "full", False)
        else ExperimentScale.from_env()
    )
    registry = _registry(scale, jobs=getattr(args, "jobs", None))
    if args.experiment == "all":
        names = list(registry)
    elif args.experiment in registry:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    want_stats = getattr(args, "stats", False)
    if want_stats:
        from repro.evaluation.runner import stats_collector

        stats_collector.enable()
    for name in names:
        start = time.perf_counter()
        result = registry[name](args)
        print(result.render())
        if want_stats:
            from repro.evaluation.reporting import render_run_stats
            from repro.evaluation.runner import stats_collector

            records = stats_collector.clear()
            if records:
                print()
                print(f"-- engine stats: {name} --")
                print(render_run_stats(records))
        if getattr(args, "plot", False) and result.series:
            from repro.evaluation.ascii_chart import line_chart

            # Chart at most four series to keep the terminal readable.
            subset = dict(list(result.series.items())[:4])
            print()
            print(line_chart(subset))
        print(f"[{name}: {time.perf_counter() - start:.1f}s]")
        print()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    When the command carries ``--metrics PATH``, the observability
    layer is enabled around the dispatch: metrics land in PATH in
    Prometheus text format, spans in ``PATH.trace.jsonl``, and a
    human-readable summary is printed after the command's own output.
    ``--telemetry DIR`` attaches an ambient sink under DIR that the
    engine/serve loops flush at their own cadence (final state flushed
    on detach); serve's ``--watch`` also needs the registry.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    telemetry_dir = getattr(args, "telemetry", None)
    watch = getattr(args, "watch", False)
    if metrics_path is None and telemetry_dir is None and not watch:
        return _dispatch(args, parser)

    from repro.evaluation.reporting import render_metrics
    from repro.obs import metrics as obs_metrics
    from repro.obs import telemetry as obs_telemetry
    from repro.obs import tracing as obs_tracing
    from repro.obs.export import write_prometheus

    obs_metrics.enable()
    if metrics_path is not None:
        obs_tracing.enable(path=f"{metrics_path}.trace.jsonl")
    if telemetry_dir is not None:
        obs_telemetry.attach(telemetry_dir)
    try:
        code = _dispatch(args, parser)
    finally:
        snapshot = obs_metrics.active().snapshot()
        if telemetry_dir is not None:
            obs_telemetry.detach()
        obs_tracing.disable()
        obs_metrics.disable()
        if metrics_path is not None:
            write_prometheus(snapshot, metrics_path)
    if metrics_path is not None:
        print()
        print(render_metrics(snapshot))
        print(f"metrics: {metrics_path}")
        print(f"trace:   {metrics_path}.trace.jsonl")
    if telemetry_dir is not None:
        print(f"telemetry: {telemetry_dir}")
    return code
