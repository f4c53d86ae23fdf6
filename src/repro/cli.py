"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiment``
    Run one three-phase hijack experiment and print the full report.
``suite``
    Run N seeded experiments and print the §3 summary tables.
``baselines``
    Compare ARTEMIS against the third-party pipelines on the same hijack.
``demo``
    Render the SIGCOMM demo's geographic frames (ASCII and optional JSON).
``topology``
    Generate a synthetic Internet and write it as a CAIDA as-rel file,
    optionally through the digest-keyed on-disk cache (``--cache-dir``).
``replay``
    Stream a recorded feed trace (``experiment --record-trace``) back into
    a standalone detection plane — paced or flat-out, no simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.baselines.factories import FACTORIES
from repro.baselines.runner import BaselineExperiment
from repro.eval.experiments import (
    liveness_summary,
    per_source_detection,
    run_artemis_suite,
    summarize_results,
)
from repro.eval.report import format_duration, format_table, summary_rows
from repro.perf import COUNTERS, format_profile, sample_memory
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.serial import save_caida
from repro.viz.geomap import GeoMapRenderer
from repro.viz.timeline import render_experiment_report


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument("--prefix", default="10.0.0.0/23", help="owned prefix")
    parser.add_argument(
        "--hijack-prefix",
        default=None,
        help="what the hijacker announces (default: the owned prefix)",
    )
    parser.add_argument("--tier1", type=int, default=5, help="number of tier-1 ASes")
    parser.add_argument("--tier2", type=int, default=25, help="number of tier-2 ASes")
    parser.add_argument("--stubs", type=int, default=90, help="number of stub ASes")
    parser.add_argument(
        "--no-churn", action="store_true", help="disable background churn"
    )
    parser.add_argument(
        "--forge-origin",
        action="store_true",
        help="type-1 hijack: forge the victim as path origin",
    )
    parser.add_argument(
        "--hijack-type",
        default=None,
        metavar="TYPE",
        help="attacker model from the full taxonomy: type-0, type-1, "
        "type-N (any N), type-U, squatting, route-leak "
        "(default: type-1 with --forge-origin, type-0 otherwise)",
    )
    parser.add_argument(
        "--corroborate",
        dest="corroborate",
        action="store_true",
        default=None,
        help="gate low-confidence verdicts on a data-plane probe "
        "(default: only for type-U, which needs it)",
    )
    parser.add_argument(
        "--no-corroborate",
        dest="corroborate",
        action="store_false",
        help="disable data-plane corroboration",
    )
    parser.add_argument(
        "--helpers", type=int, default=0, help="outsourced-mitigation helper ASes"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="fault plan armed at the hijack instant (see repro.faults)",
    )
    parser.add_argument(
        "--failover-to-batch",
        action="store_true",
        help="engage the batch archive while any live source is down",
    )
    parser.add_argument(
        "--warm-start",
        action="store_true",
        help="fork a checkpoint of the converged phase-1 world instead of "
        "rebuilding it (captured on first use; suites share one capture)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file to fork (built and saved there first if the "
        "file does not exist yet); implies --warm-start",
    )
    parser.add_argument(
        "--world-seed",
        type=int,
        default=None,
        metavar="INT",
        help="build the world from this seed and re-key all world RNG "
        "streams from --seed at the hijack instant, so one checkpointed "
        "world serves a whole sweep of run seeds bit-identically",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk topology cache: graphs are stored per (params, seed) "
        "digest, so suite workers and repeated runs skip regeneration",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print simulation perf counters (events/sec etc.) when done",
    )
    parser.add_argument(
        "--profile-json",
        default=None,
        metavar="PATH",
        help="write perf counters and per-phase wall times as JSON here "
        "(suite runs merge worker counters and sum phase walls)",
    )


def _scenario_from_args(args: argparse.Namespace, seed: Optional[int] = None) -> ScenarioConfig:
    config = ScenarioConfig(
        prefix=args.prefix,
        hijack_prefix=args.hijack_prefix,
        seed=args.seed if seed is None else seed,
        topology=GeneratorConfig(
            num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
        ),
        churn=None if args.no_churn else ScenarioConfig().churn,
        churn_warmup=0.0 if args.no_churn else 180.0,
        forge_origin=args.forge_origin,
        hijack_type=getattr(args, "hijack_type", None),
        corroborate=getattr(args, "corroborate", None),
        num_helpers=args.helpers,
        faults=args.faults,
        failover_to_batch=args.failover_to_batch,
        world_seed=getattr(args, "world_seed", None),
        warm_start=getattr(args, "warm_start", False),
        record_trace=getattr(args, "record_trace", None),
        cache_dir=getattr(args, "cache_dir", None),
    )
    path = getattr(args, "checkpoint", None)
    if path is not None:
        import os

        from repro.testbed.checkpoint import Checkpoint, save_checkpoint

        if not os.path.exists(path):
            # First use: capture the converged world and persist it, so the
            # next invocation (or a CI restore job) forks it from disk.
            save_checkpoint(Checkpoint.capture(config), path)
            print(f"checkpoint captured -> {path}")
        config.checkpoint = path
    return config


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one three-phase hijack experiment and print the report."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    args._phase_walls = dict(result.phase_walls)
    print(render_experiment_report(result))
    if experiment.recorder is not None:
        print(
            f"\ntrace recorded: {experiment.recorder.records} events "
            f"-> {args.record_trace}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"\nresult written to {args.json}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a standalone detection plane."""
    from repro.errors import FeedError
    from repro.feeds.replay import ReplaySession

    if args.synth_tenants or args.tenants:
        return _cmd_replay_tenants(args)

    try:
        session = ReplaySession(
            args.trace,
            speed=args.speed,
            faults=args.faults,
            seed=args.seed,
            supervise=args.supervise,
        )
        report = session.run(max_events=args.max_events)
    except FeedError as error:
        print(f"replay failed: {error}", file=sys.stderr)
        return 2

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    rows = [
        ["trace", args.trace],
        ["speed", "flat-out" if args.speed is None else f"{args.speed:g}x"],
        ["records read", fmt(report["records_read"])],
        ["events delivered", fmt(report["events_delivered"])],
        ["events dropped (faults)", fmt(report["events_dropped"])],
        ["duplicate deliveries", fmt(report["duplicate_events_skipped"])],
        ["pending-copy backlog peak", fmt(report["backlog_peak"])],
        ["wall seconds", fmt(report["wall_seconds"])],
        ["updates / sec", fmt(report["updates_per_second"])],
        ["alerts", fmt(report["alerts"])],
        ["detection delay (s)", fmt(report["detection_delay"])],
        ["first alert wall (s)", fmt(report["time_to_first_alert_wall"])],
        ["alert digest", report["alert_digest"][:16]],
        ["peak RSS (KB)", fmt(report["peak_rss_kb"])],
    ]
    print(format_table(["metric", "value"], rows, title="trace replay"))
    if report["per_source_delay_final"]:
        print()
        print(
            format_table(
                ["source", "delay (s)"],
                [
                    [source, delay]
                    for source, delay in sorted(
                        report["per_source_delay_final"].items()
                    )
                ],
                title="per-source detection delay",
                precision=2,
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return 0


def _cmd_replay_tenants(args: argparse.Namespace) -> int:
    """Replay a trace through the multi-tenant batched detection plane."""
    import time as _time

    from repro.core.config import ArtemisConfig
    from repro.errors import FeedError, ReproError
    from repro.feeds.replay import load_trace
    from repro.perf import COUNTERS
    from repro.tenants import TenantRegistry, run_partitioned
    from repro.tenants.synth import build_synth_registry, observed_origin_map

    if args.faults or args.supervise or args.speed is not None:
        print(
            "tenant mode is a flat-out pure-ingest path: "
            "--faults/--supervise/--speed do not apply",
            file=sys.stderr,
        )
        return 2
    try:
        trace = load_trace(args.trace)
        if args.tenants:
            with open(args.tenants, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
            registry = TenantRegistry()
            for name, entry in sorted(spec["tenants"].items()):
                registry.add_tenant(
                    name,
                    ArtemisConfig.from_dict(entry["config"]),
                    autoignore_visibility=entry.get("autoignore_visibility", 0),
                )
        else:
            registry = build_synth_registry(
                observed_origin_map(trace.events),
                num_tenants=args.synth_tenants,
                num_prefixes=args.synth_prefixes
                or 100 * args.synth_tenants,
            )
    except (FeedError, ReproError, OSError, KeyError, ValueError) as error:
        print(f"tenant replay failed: {error}", file=sys.stderr)
        return 2

    COUNTERS.reset()
    workers = max(1, args.detect_workers)
    events = trace.events[: args.max_events]
    started = _time.perf_counter()
    result = run_partitioned(
        registry, events, num_workers=workers, batch_size=args.batch_size
    )
    wall = _time.perf_counter() - started
    events_seen = result["events_seen"]
    cpu_note = ", ".join(f"{c:.2f}" for c in result["cpu_seconds"])

    rows = [
        ["trace", args.trace],
        ["tenants", str(len(registry))],
        ["rules", str(registry.num_rules)],
        ["monitored prefixes", str(len(registry.monitored_prefixes()))],
        ["detect workers", str(workers)],
        ["batch size", str(args.batch_size)],
        ["events seen", str(events_seen)],
        ["pipeline batches", str(COUNTERS.pipeline_batches)],
        ["trie walks", str(COUNTERS.pipeline_trie_walks)],
        ["memo hits", str(COUNTERS.pipeline_memo_hits)],
        ["backpressure stalls", str(COUNTERS.pipeline_backpressure_stalls)],
        ["alerts (all tenants)", str(result["alerts"])],
        ["merged alert digest", result["digest"][:16]],
        ["wall seconds", f"{wall:.3f}"],
        ["events / sec", f"{events_seen / wall:,.0f}" if wall > 0 else "-"],
        ["worker cpu seconds", cpu_note],
    ]
    print(format_table(["metric", "value"], rows, title="multi-tenant replay"))
    if args.json:
        report = {
            "trace": args.trace,
            "tenants": len(registry),
            "rules": registry.num_rules,
            "detect_workers": workers,
            "batch_size": args.batch_size,
            "events_seen": events_seen,
            "alerts": result["alerts"],
            "merged_alert_digest": result["digest"],
            "wall_seconds": wall,
            "counters": COUNTERS.as_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """Run a suite of seeded experiments and print summary tables."""
    template = _scenario_from_args(args, seed=0)
    results = run_artemis_suite(
        template,
        seeds=range(args.runs),
        on_result=lambda r: print(
            f"  seed {r.seed}: detect={format_duration(r.detection_delay)} "
            f"total={format_duration(r.total_time)}"
        ),
        jobs=args.jobs,
    )
    walls: dict = {}
    for result in results:
        for phase, seconds in result.phase_walls.items():
            walls[phase] = walls.get(phase, 0.0) + seconds
    args._phase_walls = walls
    print()
    print(
        format_table(
            ["metric", "n", "mean (s)", "median (s)", "p95 (s)", "max (s)"],
            summary_rows(summarize_results(results)),
            title=f"timings over {args.runs} experiments",
        )
    )
    print()
    print(
        format_table(
            ["source", "n", "mean (s)", "median (s)", "p95 (s)", "max (s)"],
            summary_rows(per_source_detection(results)),
            title="detection delay per source",
        )
    )
    if any(result.faults_injected for result in results):
        rows = [
            [
                source,
                row["runs"],
                row["outages"],
                row["downtime"],
                row["max_staleness"],
                row["detected_while_dead"],
            ]
            for source, row in sorted(liveness_summary(results).items())
        ]
        print()
        print(
            format_table(
                [
                    "source",
                    "runs",
                    "outages",
                    "downtime (s)",
                    "worst staleness (s)",
                    "detected while dead",
                ],
                rows,
                title="source health under faults",
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in results], handle, indent=2)
        print(f"\nresults written to {args.json}")
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    """Sweep the hijack taxonomy and print the accuracy×delay matrix."""
    from repro.eval.taxonomy import (
        TAXONOMY,
        run_false_positive_suite,
        run_taxonomy_matrix,
    )

    classes = args.classes or list(TAXONOMY)
    matrix = run_taxonomy_matrix(seeds=list(args.seeds), classes=classes)
    rows = [
        [
            hijack_type,
            stats["expected_alert"],
            f"{stats['tp']}/{stats['runs']}",
            stats["misclassified"],
            stats["fn"],
            stats["mitigated"],
            stats["detection_delay_mean"],
        ]
        for hijack_type, stats in matrix["per_class"].items()
    ]
    print(
        format_table(
            ["class", "rule", "tp", "misclass", "fn", "mitigated", "delay (s)"],
            rows,
            title=f"taxonomy matrix over seeds {list(args.seeds)}",
            precision=2,
        )
    )
    fp = run_false_positive_suite(corroborate=not args.no_corroborate)
    print()
    print(
        format_table(
            ["benign scenario", "events", "false positives"],
            [[s["name"], s["events"], s["false_positives"]] for s in fp["scenarios"]],
            title="false-positive suite "
            + ("(corroborated)" if fp["corroborate"] else "(control-plane only)"),
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"matrix": matrix, "false_positives": fp}, handle, indent=2)
        print(f"\nmatrix written to {args.json}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    """Compare ARTEMIS against third-party pipelines on one hijack."""
    artemis_result = HijackExperiment(_scenario_from_args(args)).run()
    rows = [
        [
            "artemis",
            (artemis_result.detection_delay or 0) / 60.0,
            (artemis_result.announce_delay or 0) / 60.0,
            (artemis_result.total_time or 0) / 60.0,
        ]
    ]
    for name in args.systems:
        factory = FACTORIES[name]
        result = BaselineExperiment(_scenario_from_args(args), factory).run()
        rows.append(
            [
                name,
                (result.detection_delay or 0) / 60.0,
                (result.reaction_delay or 0) / 60.0,
                (result.total_time or 0) / 60.0 if result.total_time else None,
            ]
        )
    print(
        format_table(
            ["system", "detect (min)", "reaction (min)", "total (min)"],
            rows,
            title="ARTEMIS vs third-party + manual pipelines",
            precision=2,
        )
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Render the demo's geographic frames (ASCII / JSON / HTML)."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    renderer = GeoMapRenderer(
        experiment.network.graph, legit_origins={experiment.victim.asn}
    )
    transitions = [
        t
        for t in experiment.artemis.monitoring.transitions
        if t[0] >= result.hijack_time
    ]
    initial = {
        vantage: origin
        for when, vantage, _prefix, origin in experiment.artemis.monitoring.transitions
        if when < result.hijack_time
    }
    frames = renderer.frames_from_transitions(
        transitions, initial=initial, max_frames=args.frames
    )
    for when, origins in frames:
        print()
        print(
            renderer.ascii_frame(
                origins, caption=f"t = {when - result.hijack_time:+.1f}s vs hijack"
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(renderer.to_json(frames))
        print(f"\nframes written to {args.json}")
    if args.html:
        from repro.viz.html import save_html

        save_html(args.html, renderer, frames)
        print(f"interactive map written to {args.html}")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    """Generate a synthetic Internet as a CAIDA as-rel file."""
    if args.output is None and args.cache_dir is None:
        print(
            "topology: need an output path, --cache-dir, or both",
            file=sys.stderr,
        )
        return 2
    config = GeneratorConfig(
        num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
    )
    if args.cache_dir is not None:
        from repro.topology.cache import cache_path, load_or_build_graph

        graph = load_or_build_graph(config, args.seed, args.cache_dir)
        print(f"cached at {cache_path(args.cache_dir, config, args.seed)}")
    else:
        graph = generate_internet(config, seed=args.seed)
    if args.output is not None:
        save_caida(graph, args.output)
        print(f"{len(graph)} ASes, {graph.link_count()} links -> {args.output}")
    else:
        print(f"{len(graph)} ASes, {graph.link_count()} links")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARTEMIS reproduction: BGP hijack detection & mitigation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment", help="run one hijack experiment"
    )
    _add_world_arguments(experiment)
    experiment.add_argument("--json", default=None, help="write result JSON here")
    experiment.add_argument(
        "--record-trace",
        default=None,
        metavar="PATH",
        help="archive the detection plane's feed as a replayable trace "
        "(replay it with the `replay` command); requires a cold start",
    )
    experiment.set_defaults(func=cmd_experiment)

    replay = commands.add_parser(
        "replay", help="replay a recorded feed trace into detection"
    )
    replay.add_argument("trace", help="trace file from experiment --record-trace")
    replay.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="N",
        help="pace at N× recorded time (default: flat-out)",
    )
    replay.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="fault plan applied to the replay path (armed at the recorded "
        "hijack instant; delay/flap entries are reported as skipped)",
    )
    replay.add_argument(
        "--seed", type=int, default=0, help="seed for fault-channel draws"
    )
    replay.add_argument(
        "--supervise",
        action="store_true",
        help="run the source supervisor against the replay clock",
    )
    replay.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="K",
        help="stop after K records (resumable ingest smoke checks)",
    )
    replay.add_argument(
        "--tenants",
        default=None,
        metavar="FILE.json",
        help="multi-tenant mode: per-tenant configs "
        '({"tenants": {name: {"config": ..., "autoignore_visibility": 0}}})',
    )
    replay.add_argument(
        "--synth-tenants",
        type=int,
        default=0,
        metavar="N",
        help="multi-tenant mode: build N synthetic tenants grounded in the "
        "trace's observed origins",
    )
    replay.add_argument(
        "--synth-prefixes",
        type=int,
        default=0,
        metavar="M",
        help="total monitored prefixes for --synth-tenants "
        "(default: 100 per tenant; the flat-array tree holds million-scale "
        "populations, e.g. --synth-tenants 10000 --synth-prefixes 1000000)",
    )
    replay.add_argument(
        "--detect-workers",
        type=int,
        default=1,
        metavar="N",
        help="partition the prefix space across N detection worker "
        "processes (tenant mode only)",
    )
    replay.add_argument(
        "--batch-size",
        type=int,
        default=256,
        metavar="B",
        help="classifier batch size for the tenant pipeline",
    )
    replay.add_argument("--json", default=None, help="write the report JSON here")
    replay.set_defaults(func=cmd_replay)

    suite = commands.add_parser("suite", help="run a suite of experiments")
    _add_world_arguments(suite)
    suite.add_argument("--runs", type=int, default=10, help="number of seeds")
    suite.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the seed matrix (deterministic per seed)",
    )
    suite.add_argument("--json", default=None, help="write results JSON here")
    suite.set_defaults(func=cmd_suite)

    taxonomy = commands.add_parser(
        "taxonomy", help="sweep the full hijack taxonomy (accuracy × delay)"
    )
    taxonomy.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11],
        help="experiment seeds per class",
    )
    taxonomy.add_argument(
        "--classes",
        nargs="+",
        default=None,
        metavar="TYPE",
        help="taxonomy classes to sweep (default: all)",
    )
    taxonomy.add_argument(
        "--no-corroborate",
        action="store_true",
        help="run the false-positive suite without the data-plane probe",
    )
    taxonomy.add_argument("--json", default=None, help="write the matrix JSON here")
    taxonomy.set_defaults(func=cmd_taxonomy)

    baselines = commands.add_parser(
        "baselines", help="compare against third-party pipelines"
    )
    _add_world_arguments(baselines)
    baselines.add_argument(
        "--systems",
        nargs="+",
        default=["argus", "phas"],
        choices=sorted(FACTORIES),
        help="which baselines to run",
    )
    baselines.set_defaults(func=cmd_baselines)

    demo = commands.add_parser("demo", help="render the demo's map frames")
    _add_world_arguments(demo)
    demo.add_argument("--frames", type=int, default=6, help="number of frames")
    demo.add_argument("--json", default=None, help="write frame JSON here")
    demo.add_argument(
        "--html", default=None, help="write a self-contained interactive map here"
    )
    demo.set_defaults(func=cmd_demo)

    topology = commands.add_parser(
        "topology", help="generate a CAIDA as-rel topology file"
    )
    topology.add_argument("--seed", type=int, default=1)
    topology.add_argument("--tier1", type=int, default=5)
    topology.add_argument("--tier2", type=int, default=25)
    topology.add_argument("--stubs", type=int, default=90)
    topology.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="build through the on-disk topology cache (digest-keyed); "
        "with a cache dir the output path is optional",
    )
    topology.add_argument("output", nargs="?", default=None, help="output path")
    topology.set_defaults(func=cmd_topology)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    profile = getattr(args, "profile", False)
    profile_json = getattr(args, "profile_json", None)
    if profile or profile_json:
        COUNTERS.reset()
        started = time.perf_counter()
    code = args.func(args)
    if profile:
        print()
        print(format_profile(time.perf_counter() - started))
    if profile_json:
        sample_memory()
        payload = {
            "command": args.command,
            "elapsed_seconds": time.perf_counter() - started,
            "counters": COUNTERS.as_dict(),
        }
        walls = getattr(args, "_phase_walls", None)
        if walls:
            payload["phase_walls"] = walls
        with open(profile_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nprofile written to {profile_json}")
    return code


if __name__ == "__main__":
    sys.exit(main())
