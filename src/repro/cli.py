"""Command-line interface for the reproduction.

``python -m repro <command>`` (or the ``murakkab-repro`` console script)
regenerates the paper's tables and figures or runs a quick demonstration
job, printing the same reports the benchmark harness checks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import MurakkabClient
    from repro.workflows.video_understanding import video_understanding_spec
    from repro.workloads.video import generate_videos

    videos = generate_videos(count=2, scenes_per_video=args.scenes)
    with MurakkabClient() as client:
        handle = client.submit(
            video_understanding_spec(), inputs=videos, job_id="cli-quickstart"
        )
        print(handle.describe_plan())
        print()
        for key, value in handle.summary().items():
            print(f"{key:>18}: {value}")
        print(f"{'answer':>18}: {handle.answer()}")
    return 0


def _load_spec(path: str):
    """Load a WorkflowSpec from a JSON file with friendly error reporting.

    Returns ``(spec, None)`` on success or ``(None, message)`` on failure.
    """
    from repro.spec import SpecError, WorkflowSpec

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        return None, f"cannot read spec file {path!r}: {error}"
    try:
        return WorkflowSpec.from_json(text), None
    except SpecError as error:
        return None, str(error)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.spec import SpecError, preview_stages

    if args.spec is None and args.fabric is None:
        print("nothing to validate: pass a spec file and/or --fabric", file=sys.stderr)
        return 2
    fabric = _resolve_fabric(args)
    if isinstance(fabric, int):
        return fabric
    if fabric is not None:
        print(f"fabric profile: {fabric.describe()}")
        for rack in fabric.racks:
            bandwidth = (
                "unlimited"
                if rack.uplink_gbps == float("inf")
                else f"{rack.uplink_gbps:g} Gbps"
            )
            print(f"  rack {rack.rack_id}: uplink {bandwidth}, "
                  f"latency {rack.uplink_latency_s:g}s")
        for link in fabric.links:
            bandwidth = (
                "unlimited"
                if link.bandwidth_gbps == float("inf")
                else f"{link.bandwidth_gbps:g} Gbps"
            )
            print(f"  link {link.src} <-> {link.dst}: {bandwidth}, "
                  f"latency {link.latency_s:g}s")
        print(f"  fingerprint: {fabric.fingerprint()[:16]}...")
        print("fabric profile is valid")
        if args.spec is None:
            return 0
        print()
    spec, error = _load_spec(args.spec)
    if spec is None:
        print(error, file=sys.stderr)
        return 1
    try:
        from repro.spec import check_spec

        check_spec(spec)
    except SpecError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(spec.describe())
    print()
    print("compiled stage plan (including orchestrator-derived stages):")
    declared = {stage.interface for stage in spec.stages}
    for stage in preview_stages(spec):
        marker = "declared" if stage.interface in declared else "derived"
        after = f" <- {list(stage.depends_on)}" if stage.depends_on else ""
        print(f"  {stage.name} [{stage.granularity}]{after} ({marker})")
    print()
    print("spec is valid")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro import MurakkabClient

    spec, error = _load_spec(args.spec)
    if spec is None:
        print(error, file=sys.stderr)
        return 1
    with MurakkabClient(policy=args.policy) as client:
        handle = client.submit(spec, job_id=args.job_id)
        print(handle.describe_plan())
        print()
        for key, value in handle.summary().items():
            print(f"{key:>18}: {value}")
        answer = handle.answer()
        if answer:
            print(f"{'answer':>18}: {answer}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.headline import run_headline
    from repro.experiments.table2 import run_table2

    table2 = run_table2()
    print(table2.render())
    print()
    print(f"Murakkab's own MIN_COST selection: {table2.autonomous_choice}")
    print(run_headline(table2).render())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.experiments.figure3 import run_figure3

    print(run_figure3().render_traces(width=args.width))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import render_table1, run_table1

    observations = run_table1()
    print(render_table1(observations))
    mismatches = [
        (observation.lever, metric)
        for observation in observations
        for metric in ("cost", "power", "latency", "quality")
        if not observation.matches_paper(metric)
    ]
    print()
    if mismatches:
        print(f"directions inconsistent with the paper: {mismatches}")
        return 1
    print("all lever directions consistent with the paper's Table 1")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import render_ablation, run_ablation

    print(render_ablation(run_ablation()))
    return 0


def _cmd_multitenant(args: argparse.Namespace) -> int:
    from repro.experiments.multitenant import run_multitenant

    print(run_multitenant().render())
    return 0


def _build_dynamics(args: argparse.Namespace):
    """Translate the loadtest disruption flags into a DynamicsConfig."""
    from repro.cluster.dynamics import DynamicsConfig, FailureModel
    from repro.cluster.spot import SpotCapacityModel

    if not (args.spot or args.failures or args.autoscale):
        return None
    spot = None
    if args.spot:
        spot = SpotCapacityModel(horizon_s=args.horizon, seed=args.dynamics_seed)
    failures = None
    if args.failures:
        mtbf = args.mtbf if args.mtbf is not None else args.horizon / 3.0
        failures = FailureModel(
            horizon_s=args.horizon, mtbf_s=mtbf, seed=args.dynamics_seed
        )
    return DynamicsConfig(
        spot=spot,
        failures=failures,
        autoscale=args.autoscale,
        autoscale_horizon_s=args.horizon,
    )


def _resolve_workloads(args: argparse.Namespace, registry):
    """The trace's workload names, registered specs included, validated.

    Loads every ``--spec`` file into the registry first.  Returns the
    workloads tuple, or an int exit code on error: 1 for an unreadable or
    invalid spec file (as ``validate``/``submit`` return), 2 for an unknown
    workload name — printed with the registered names listed, instead of a
    bare ``KeyError`` deep inside the load generator.
    """
    spec_names = []
    for path in getattr(args, "spec", None) or ():
        spec, error = _load_spec(path)
        if spec is None:
            print(error, file=sys.stderr)
            return 1
        spec_names.append(registry.register_spec(spec))
    if args.workloads is not None:
        workloads = tuple(name for name in args.workloads.split(",") if name)
    elif spec_names:
        # --spec without --workloads serves just the supplied specs.
        workloads = tuple(spec_names)
    else:
        workloads = tuple(args.default_workloads.split(","))
    if not workloads:
        print(
            f"no workloads requested; registered: {', '.join(registry.names())}",
            file=sys.stderr,
        )
        return 2
    unknown = [name for name in workloads if name not in registry]
    if unknown:
        print(
            f"unknown workload(s) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(registry.names())}",
            file=sys.stderr,
        )
        return 2
    return workloads


def _build_arrivals(args: argparse.Namespace, workloads: tuple):
    """Translate the shared trace flags into an arrival schedule."""
    from repro.workloads.arrival import bursty_arrivals, diurnal_arrivals, poisson_arrivals

    if args.shape == "poisson":
        return poisson_arrivals(
            rate_per_s=args.rate, horizon_s=args.horizon, workloads=workloads, seed=args.seed
        )
    if args.shape == "bursty":
        return bursty_arrivals(
            burst_rate_per_s=args.rate,
            burst_duration_s=args.horizon / 10.0,
            idle_duration_s=args.horizon / 10.0,
            horizon_s=args.horizon,
            workloads=workloads,
            seed=args.seed,
        )
    return diurnal_arrivals(
        base_rate_per_s=max(args.rate / 8.0, min(args.rate, 1e-3)),
        peak_rate_per_s=args.rate,
        period_s=args.horizon / 2.0,
        horizon_s=args.horizon,
        workloads=workloads,
        seed=args.seed,
    )


def _resolve_fabric(args: argparse.Namespace):
    """The ``--fabric`` profile as a topology, ``None``, or exit code 2.

    An unknown profile name exits 2 with the registered profiles listed
    (the ``_resolve_workloads`` contract), instead of a bare ``KeyError``
    deep inside service construction.
    """
    name = getattr(args, "fabric", None)
    if name is None:
        return None
    from repro.fabric import UnknownFabricError, get_fabric

    try:
        return get_fabric(name)
    except UnknownFabricError as error:
        print(str(error), file=sys.stderr)
        return 2


def _fabric_testbed(fabric, node_count=None):
    """A runtime provisioned for the fabric's testbed-size hint (or None).

    Profiles drawn for more racks than the stock 2-node testbed carry a
    ``testbed_nodes`` hint; honouring it gives every rack at least one node,
    so the profile's locality structure is actually exercisable.
    """
    if fabric is None or fabric.testbed_nodes is None:
        return None
    from repro.cluster.cluster import paper_testbed
    from repro.core.runtime import MurakkabRuntime

    return MurakkabRuntime(cluster=paper_testbed(node_count or fabric.testbed_nodes))


def _build_admission(args: argparse.Namespace):
    """Translate the admission flags into an AdmissionConfig (or None)."""
    if args.admit_rate is None:
        return None
    from repro.admission import AdmissionConfig

    return AdmissionConfig(
        rate_per_s=args.admit_rate,
        burst=args.admit_burst,
        tenant_rate_per_s=args.admit_tenant_rate,
        tenant_burst=args.admit_tenant_burst,
        max_defer_s=args.max_defer,
        degrade=not args.no_degrade,
        degraded_quality=args.degraded_quality,
        degraded_constraint=args.degraded_constraint,
        default_deadline_s=args.default_deadline,
    )


def _print_class_breakdown(report) -> None:
    """Per-priority-class QoE lines for an admission-controlled report."""
    for priority in sorted(report.priority_classes):
        counters = report.priority_classes[priority]
        latency = report.priority_latency.get(priority)
        mean = round(latency.mean, 3) if latency is not None and latency.count else 0.0
        print(
            f"{f'class {priority}':>22}: jobs={counters['jobs']} "
            f"degraded={counters['degraded']} deferred={counters['deferred']} "
            f"rejected={counters['rejected']} "
            f"slo_violations={counters['slo_violations']} "
            f"mean_latency_s={mean}"
        )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro import MurakkabClient
    from repro.loadgen import default_registry

    if args.replay:
        return _replay_common(args.replay, out=None, csv_out=None)
    # Validate workloads/specs before paying for service construction
    # (cluster, library profiling): a typo exits without building anything.
    registry = default_registry()
    workloads = _resolve_workloads(args, registry)
    if isinstance(workloads, int):
        return workloads
    fabric = _resolve_fabric(args)
    if isinstance(fabric, int):
        return fabric
    arrivals = _build_arrivals(args, workloads)
    dynamics = _build_dynamics(args)
    admission = _build_admission(args)
    # An explicit --shard-backend fronts even one shard with a sharded service.
    sharded = args.shards > 1 or args.shard_backend is not None
    if sharded and dynamics is not None and args.shard_backend in (None, "process"):
        print(
            "disruption schedules bind to shard-local engines; combine "
            "--shards with --shard-backend inline for dynamics",
            file=sys.stderr,
        )
        return 2
    if args.multiplex_window is not None and args.mode != "multiplex":
        print("--multiplex-window requires --mode multiplex", file=sys.stderr)
        return 2
    if args.capture and (sharded or dynamics is not None):
        print(
            "--capture records a single-engine trace; drop --shards and "
            "disruption flags",
            file=sys.stderr,
        )
        return 2
    runtime = None if sharded else _fabric_testbed(fabric)
    with MurakkabClient(
        runtime=runtime,
        dynamics=dynamics,
        policy=args.policy,
        registry=registry,
        warm_cache=args.warm_cache,
        shards=args.shards,
        shard_backend=args.shard_backend,
        fabric=fabric,
    ) as client:
        if args.capture:
            from repro.client import TraceHandle
            from repro.capture import capture_trace

            capture_options = {}
            if args.multiplex_window is not None:
                capture_options["multiplex_window"] = args.multiplex_window
            capture, report = capture_trace(
                client.service,
                arrivals,
                registry=registry,
                admission=admission,
                mode=args.mode,
                **capture_options,
            )
            capture.save(args.capture)
            print(f"{'capture':>22}: {args.capture} ({capture.checksum()[:12]}...)")
            handle = TraceHandle(report)
        else:
            options = {"mode": args.mode}
            if admission is not None:
                options["admission"] = admission
            if args.multiplex_window is not None:
                options["multiplex_window"] = args.multiplex_window
            handle = client.submit_trace(arrivals, **options)
        service = client.service
        if service.policy is not None:
            print(f"{'policy':>22}: {service.policy.describe()}")
        if fabric is not None:
            print(f"{'fabric':>22}: {fabric.describe()}")
        for key, value in handle.summary().items():
            print(f"{key:>22}: {value}")
        if handle.report.admission_controlled:
            _print_class_breakdown(handle.report)
        if args.report_json:
            import json

            with open(args.report_json, "w", encoding="utf-8") as fh:
                json.dump(handle.report.canonical_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"{'report json':>22}: {args.report_json}")
        for shard, provenance in sorted(handle.report.shards.items()):
            print(
                f"{f'shard {shard}':>22}: jobs={provenance['jobs']} "
                f"simulated={provenance['simulated_jobs']} "
                f"replayed={provenance['replayed_jobs']} "
                f"failed={provenance['failed_jobs']}"
            )
        for workload, counters in sorted(handle.group_counters().items()):
            print(f"{workload:>22}: {counters}")
        if service.warm_cache is not None:
            if sharded:
                counters = service.warm_cache_counters()
            else:
                counters = service.warm_cache.counters()
            print(
                f"{'warm cache':>22}: hits={counters['hits']} "
                f"misses={counters['misses']} invalid={counters['invalid']} "
                f"stores={counters['stores']} "
                f"store_failures={counters['store_failures']}"
            )
            print(f"{'warm trace replay':>22}: {handle.report.warm_trace}")
        if handle.disruptions():
            print(f"{'disruption log':>22}: {handle.disruptions()}")
            shard_dynamics = service.dynamics
            if not isinstance(shard_dynamics, dict):
                shard_dynamics = {0: shard_dynamics}
            for _, dyn in sorted(shard_dynamics.items()):
                for command in dyn.log.commands:
                    print(
                        f"{'scaling command':>22}: {command.action.value} {command.reason}"
                    )
    return 0


def _replay_common(path: str, out: Optional[str], csv_out: Optional[str]) -> int:
    """Load a capture, re-serve its trace, and verify byte-identity."""
    from repro.capture import (
        CaptureError,
        TraceCapture,
        diff_captures,
        replay_capture,
        replays_identically,
    )

    try:
        capture = TraceCapture.load(path)
    except (OSError, CaptureError) as error:
        print(f"cannot load capture: {error}", file=sys.stderr)
        return 2
    replayed, report = replay_capture(capture)
    for key, value in report.summary().items():
        print(f"{key:>22}: {value}")
    if report.admission_controlled:
        _print_class_breakdown(report)
    if out:
        replayed.save(out)
        print(f"{'replayed capture':>22}: {out}")
    if csv_out:
        replayed.to_csv(csv_out)
        print(f"{'qoe csv':>22}: {csv_out}")
    if replays_identically(capture, replayed):
        print(f"{'replay':>22}: identical ({capture.checksum()[:12]}...)")
        return 0
    print(
        f"{'replay':>22}: DIVERGED in {diff_captures(capture, replayed)}",
        file=sys.stderr,
    )
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    return _replay_common(args.capture_file, out=args.out, csv_out=args.csv)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.warmstate import DEFAULT_CACHE_DIR, WarmStateCache

    cache = WarmStateCache(args.dir or DEFAULT_CACHE_DIR)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache file(s) from {cache.root}")
        return 0
    entries = cache.entries()
    print(f"{'path':>12}: {cache.root}")
    print(f"{'entries':>12}: {len(entries)}")
    print(f"{'total bytes':>12}: {cache.total_size_bytes()}")
    for entry in entries:
        print(f"{entry.kind:>12}: {entry.digest}  ({entry.size_bytes} bytes)")
    shards = cache.shard_summary()
    if shards:
        for shard in shards:
            print(
                f"{shard['name']:>12}: {shard['entries']} entries  "
                f"({shard['size_bytes']} bytes)"
            )
        print(
            f"{'with shards':>12}: "
            f"{cache.total_size_bytes(include_shards=True)} bytes total"
        )
    return 0


#: Post count of the ``compare-policies`` newsfeed: heavier than the stock
#: 20-post feed so per-stage policy differences (lane counts, profile
#: choices) surface in end-to-end latency instead of rounding away.
COMPARISON_NEWSFEED_POSTS = 48


def _comparison_registry():
    from repro.loadgen import default_registry
    from repro.workflows.newsfeed import newsfeed_spec

    registry = default_registry()
    registry.register_spec(newsfeed_spec(post_count=COMPARISON_NEWSFEED_POSTS))
    return registry


def _cmd_compare_policies(args: argparse.Namespace) -> int:
    from repro import AIWorkflowService
    from repro.policies import available_bundles
    from repro.telemetry.reporting import render_table

    registered = available_bundles()
    names = args.policies.split(",") if args.policies else registered
    unknown = [name for name in names if name not in registered]
    if unknown:
        print(
            f"unknown policy bundle(s) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(registered)}",
            file=sys.stderr,
        )
        return 2
    registry = _comparison_registry()
    workloads = _resolve_workloads(args, registry)
    if isinstance(workloads, int):
        return workloads
    fabric = _resolve_fabric(args)
    if isinstance(fabric, int):
        return fabric
    rows = []
    for name in names:
        # Fresh arrivals, service, and dynamics schedule per bundle: every
        # policy serves the identical trace from the identical start state.
        arrivals = _build_arrivals(args, workloads)
        service = AIWorkflowService(
            runtime=_fabric_testbed(fabric),
            policy=name,
            dynamics=_build_dynamics(args),
            fabric=fabric,
        )
        report = service.submit_trace(arrivals, registry=registry, mode=args.mode)
        disruptions = sum(
            report.disruptions.get(key, 0)
            for key in ("preemptions", "failures", "scale_outs", "scale_ins")
        )
        row = [
            name,
            str(report.jobs),
            f"{report.makespan_s.mean:.3f}",
            f"{report.energy_wh.total:.3f}",
            f"{report.cost.total:.4f}",
            f"{report.quality.mean:.3f}",
            str(report.failed_jobs),
            str(disruptions),
        ]
        if fabric is not None:
            row.extend(
                [
                    f"{report.transferred_bytes / 1e6:.1f}",
                    f"{report.cross_rack_bytes / 1e6:.1f}",
                    f"{report.transfer_s:.3f}",
                ]
            )
        rows.append(row)
        service.shutdown()
    headers = [
        "Policy",
        "Jobs",
        "Mean latency (s)",
        "Energy (Wh)",
        "Cost",
        "Quality",
        "Failed",
        "Disruptions",
    ]
    if fabric is not None:
        print(f"fabric: {fabric.describe()}")
        headers.extend(["Moved (MB)", "Cross-rack (MB)", "Transfer (s)"])
    print(render_table(headers, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="murakkab-repro",
        description=(
            "Reproduction of 'Towards Resource-Efficient Compound AI Systems' "
            "(Murakkab, HotOS 2025): regenerate the paper's tables and figures."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser(
        "quickstart", help="run the Listing-2 video-understanding job once"
    )
    quickstart.add_argument(
        "--scenes", type=int, default=8, help="scenes per video (default: the paper's 8)"
    )
    quickstart.set_defaults(func=_cmd_quickstart)

    table2 = subparsers.add_parser(
        "table2", help="regenerate Table 2 (energy/time per STT configuration) + headline claims"
    )
    table2.set_defaults(func=_cmd_table2)

    figure3 = subparsers.add_parser(
        "figure3", help="regenerate Figure 3 (execution traces and utilisation)"
    )
    figure3.add_argument("--width", type=int, default=72, help="timeline width in characters")
    figure3.set_defaults(func=_cmd_figure3)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (optimisation levers)")
    table1.set_defaults(func=_cmd_table1)

    ablation = subparsers.add_parser(
        "ablation", help="per-lever contribution ablation (ours)"
    )
    ablation.set_defaults(func=_cmd_ablation)

    multitenant = subparsers.add_parser(
        "multitenant", help="Workflow A + B multiplexing comparison (ours)"
    )
    multitenant.set_defaults(func=_cmd_multitenant)

    validate = subparsers.add_parser(
        "validate",
        help="validate a workflow-spec JSON file and print its compiled "
        "stage plan without running anything (ours)",
    )
    validate.add_argument(
        "spec", nargs="?", default=None, help="path to the spec JSON file"
    )
    _add_fabric_flag(validate)
    validate.set_defaults(func=_cmd_validate)

    submit = subparsers.add_parser(
        "submit",
        help="compile a workflow-spec JSON file and run it once on a fresh "
        "service (ours)",
    )
    submit.add_argument("--spec", required=True, help="path to the spec JSON file")
    submit.add_argument("--job-id", default="", help="job id for the submission")
    _add_policy_flag(submit)
    submit.set_defaults(func=_cmd_submit)

    loadtest = subparsers.add_parser(
        "loadtest",
        help="serve a synthetic arrival trace through the AIWaaS batched-admission path (ours)",
    )
    _add_trace_flags(loadtest)
    _add_dynamics_flags(loadtest)
    _add_policy_flag(loadtest)
    _add_fabric_flag(loadtest)
    loadtest.add_argument(
        "--warm-cache",
        metavar="DIR",
        default=None,
        help="persist warm service state (profiles, plans, trace recordings) "
        "in DIR: a rerun with the same trace skips the profiling sweep and "
        "replays the recording with zero probe simulations",
    )
    loadtest.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition admission across N worker engines behind one logical "
        "service (consistent-hashed by tenant; reports are merged exactly)",
    )
    loadtest.add_argument(
        "--shard-backend",
        choices=("process", "inline"),
        default=None,
        help="process = one worker process per shard (parallel, the default "
        "with --shards > 1); inline = all shards in-process (sequential, for "
        "debugging); given with --shards 1 it serves through a one-shard "
        "sharded service",
    )
    _add_admission_flags(loadtest)
    loadtest.add_argument(
        "--capture",
        metavar="PATH",
        default=None,
        help="record the served trace (arrivals, specs, admission config, "
        "per-job QoE, report) to a checksummed capture file for bit-exact "
        "replay (single engine, grouped mode)",
    )
    loadtest.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay a capture file instead of generating a trace; exits "
        "nonzero if the replayed report diverges from the recorded one",
    )
    loadtest.add_argument(
        "--report-json",
        metavar="PATH",
        default=None,
        help="also write the report's canonical dict as JSON",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    replay = subparsers.add_parser(
        "replay",
        help="re-serve a captured trace bit-exactly and verify QoE (ours)",
    )
    replay.add_argument("capture_file", help="capture file written by loadtest --capture")
    replay.add_argument(
        "--out", default=None, help="write the replayed capture to this path"
    )
    replay.add_argument(
        "--csv", default=None, help="export the replayed per-job QoE entries as CSV"
    )
    replay.set_defaults(func=_cmd_replay)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear a persistent warm-state cache (ours)"
    )
    cache.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: .repro-warm-cache)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("info", help="show path, size, and entry fingerprints")
    cache_sub.add_parser("clear", help="delete every cache file")
    cache.set_defaults(func=_cmd_cache)

    compare = subparsers.add_parser(
        "compare-policies",
        help="serve one trace under every policy bundle and print the "
        "latency/energy/failed-jobs comparison (ours)",
    )
    _add_trace_flags(
        compare, default_workloads="newsfeed", default_rate=0.5, default_horizon=120.0
    )
    _add_dynamics_flags(compare)
    _add_fabric_flag(compare)
    compare.add_argument(
        "--policies",
        default=None,
        help="comma-separated bundle names to compare (default: every registered bundle)",
    )
    compare.set_defaults(func=_cmd_compare_policies)
    return parser


def _add_admission_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "admission control",
        "overload admission: --admit-rate enables the ladder "
        "(degrade, then defer, then reject)",
    )
    group.add_argument(
        "--admit-rate",
        type=float,
        default=None,
        metavar="JOBS_PER_S",
        help="global admitted-job rate budget; omit to disable admission",
    )
    group.add_argument(
        "--admit-burst", type=float, default=4.0, help="global burst allowance (jobs)"
    )
    group.add_argument(
        "--admit-tenant-rate",
        type=float,
        default=None,
        help="per-tenant rate budget (default: the global rate)",
    )
    group.add_argument(
        "--admit-tenant-burst",
        type=float,
        default=None,
        help="per-tenant burst allowance (default: the global burst)",
    )
    group.add_argument(
        "--max-defer",
        type=float,
        default=0.0,
        help="longest a job may wait for tokens before rejection (s)",
    )
    group.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable quality shedding (skip straight to defer/reject)",
    )
    group.add_argument(
        "--degraded-quality",
        type=float,
        default=0.0,
        help="quality target degraded jobs are re-planned at",
    )
    group.add_argument(
        "--degraded-constraint",
        default=None,
        choices=("min_latency", "min_cost", "min_energy", "min_power"),
        help="planning objective for degraded jobs (default: the spec's own)",
    )
    group.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline SLO (s) for workloads whose spec declares none",
    )


def _add_fabric_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fabric",
        default=None,
        metavar="PROFILE",
        help="attach a cluster-interconnect profile (e.g. uniform, "
        "datacenter-3tier, edge-wan, congested): dependent stages on "
        "different nodes pay per-payload transfer time on its links "
        "(default: free data movement)",
    )


def _add_policy_flag(parser: argparse.ArgumentParser) -> None:
    from repro.policies import available_bundles

    parser.add_argument(
        "--policy",
        default=None,
        choices=available_bundles(),
        help="control-plane policy bundle to run under (default: stock behaviour)",
    )


def _add_trace_flags(
    parser: argparse.ArgumentParser,
    default_workloads: str = "newsfeed,chain-of-thought",
    default_rate: float = 1.0,
    default_horizon: float = 600.0,
) -> None:
    parser.add_argument(
        "--shape", choices=("poisson", "bursty", "diurnal"), default="poisson"
    )
    parser.add_argument(
        "--rate", type=float, default=default_rate, help="arrival rate (jobs/s)"
    )
    parser.add_argument(
        "--horizon", type=float, default=default_horizon, help="trace horizon (s)"
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (see repro.loadgen.default_registry; "
        f"default: {default_workloads})",
    )
    parser.add_argument(
        "--spec",
        action="append",
        metavar="PATH",
        help="register a workflow-spec JSON file as a servable workload "
        "(repeatable; without --workloads the trace serves just these specs)",
    )
    parser.add_argument(
        "--mode",
        choices=("grouped", "multiplex"),
        default="grouped",
        help="grouped = steady-state memoized throughput path; multiplex = "
        "full per-event interleaving with steady-window batch replay "
        "(admission and capture work in both)",
    )
    parser.add_argument(
        "--multiplex-window",
        type=int,
        default=None,
        metavar="N",
        help="multiplex steady-window detector period: omit to auto-detect, "
        "0 to disable (full per-event serving), N>=1 to override",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.set_defaults(default_workloads=default_workloads)


def _add_dynamics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spot",
        action="store_true",
        help="run under a seeded spot-capacity schedule (windows open as extra "
        "nodes, closing windows preempt them)",
    )
    parser.add_argument(
        "--failures",
        action="store_true",
        help="inject seeded whole-server failures over the trace horizon",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="let sustained queueing pressure add nodes via scaling commands",
    )
    parser.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help="mean time between failures in seconds (default: horizon/3)",
    )
    parser.add_argument(
        "--dynamics-seed",
        type=int,
        default=0,
        help="seed for the spot/failure schedules (independent of --seed)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
