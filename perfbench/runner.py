"""One benchmark run: set up, time a workload, check its outputs, report.

``--trace 0`` times the workload's units, untraced, for the requested
seconds and reports the end-to-end metrics; its times are taken at the
nominal host speed that the references of :mod:`perfbench.reference`,
timed beside set-up and between the units, gauge.  ``--trace 1`` serves
each unit untraced and then traced with the layer wrappers of :mod:`perfbench.tracer`
installed, alternating for the requested seconds, and reports the per-layer
metrics of the first traced pass: each layer's self time and call counts
(which with ``other.self_s`` add up to the traced wall), the counters the
program exposes, and ``trace.overhead_ratio``, the traced over the untraced
wall of the same alternating servings.  Every traced serving must produce
the same output digest as the untraced one.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.reference import NOMINAL_STARTUP_S, Gauge, startup_probe
from perfbench.tracer import SELF_TIMES, Tracer, write_chrome_trace
from perfbench.workloads import WORKLOADS, UnitOutcome

#: Set-up is repeated this many times per run and its median reported.
SETUP_ROUNDS = 3

ROOT = Path(__file__).resolve().parent.parent

#: What ``run.py`` imports before set-up, timed in a fresh interpreter.
_IMPORT_CODE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]\n"
    "import repro\n"
    "from perfbench import checks, runner, workloads\n"
    "print(time.perf_counter() - started)\n"
)

#: ``BENCHMARK.json`` names every metric and its unit: the end-to-end ones
#: are reported with ``--trace 0``, the per-layer ones with ``--trace 1``
#: (layers a workload does not reach report 0).
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Counters summed from the traced pass's unit outcomes.
_COUNTED = (
    "sim.engine.events_fired",
    "fabric.transfer_events",
    "loadgen.simulated_jobs",
    "loadgen.replayed_jobs",
    "loadgen.replay_runs",
    "warmstate.hits",
    "warmstate.misses",
    "warmstate.invalid",
    "warmstate.bytes",
)


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import what a run imports."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(ROOT)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise checks.CheckFailed("no samples for a percentile")
    rank = max(0, math.ceil(p * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Timed:
    """Unit outcomes and wall times of one phase of a run."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, float, UnitOutcome]] = []
        self.digests: Dict[int, str] = {}
        self.gauge = Gauge()

    def add(self, index: int, wall: float, outcome: UnitOutcome) -> None:
        expected = self.digests.setdefault(index, outcome.digest)
        checks.check_same_digest(f"unit {index} repeated", expected, outcome.digest)
        self.records.append((index, wall, outcome))

    def first_pass(self, units: int) -> List[UnitOutcome]:
        seen: Dict[int, UnitOutcome] = {}
        for index, _, outcome in self.records:
            seen.setdefault(index, outcome)
        if len(seen) != units:
            raise checks.CheckFailed(f"only {len(seen)} of {units} units ran")
        return [seen[index] for index in range(units)]


def _time_units(workload, state, units, seconds: float, workdir: Path) -> Timed:
    """Serve the units round-robin until every unit ran once and ``seconds``
    have passed, keeping the host-speed gauge's chunks in step."""
    timed = Timed()
    clock = time.perf_counter
    started = clock()
    count = 0
    served_s = 0.0
    while count < len(units) or clock() - started < seconds:
        index = count % len(units)
        begin = clock()
        outcome = workload.run_unit(state, units[index], workdir)
        wall = clock() - begin
        timed.add(index, wall, outcome)
        served_s += wall
        timed.gauge.keep_up(served_s)
        count += 1
    return timed


def _time_paired(
    workload, state, units, seconds: float, workdir: Path, tracer: Tracer
) -> Tuple[Timed, Timed]:
    """Serve each unit untraced and then traced, round-robin, until every
    unit ran once and ``seconds`` have passed, so both sides of
    ``trace.overhead_ratio`` see the same host conditions and the same
    units.  The first traced pass records into ``tracer``; later traced
    repeats count only for their wall."""
    untraced, traced = Timed(), Timed()
    clock = time.perf_counter
    started = clock()
    count = 0
    while count < len(units) or clock() - started < seconds:
        index = count % len(units)
        begin = clock()
        outcome = workload.run_unit(state, units[index], workdir)
        untraced.add(index, clock() - begin, outcome)
        recorder = tracer if count < len(units) else Tracer()
        workload.trace_workers = True
        try:
            with recorder:
                begin = clock()
                outcome = recorder.unit(workload.run_unit, state, units[index], workdir)
                traced.add(index, clock() - begin, outcome)
        finally:
            workload.trace_workers = False
        count += 1
    return untraced, traced


def _total_wall(timed: Timed) -> float:
    """Wall seconds of every unit served in the phase."""
    return sum(wall for _, wall, _ in timed.records)


def _end_to_end(timed: Timed, units: int, setup_s: float) -> Dict[str, float]:
    outcomes = timed.first_pass(units)
    completed = sum(outcome.completed for outcome in outcomes)
    offered = sum(outcome.offered for outcome in outcomes)
    latencies = [value for outcome in outcomes for value in outcome.latencies_s]
    sim_jobs = sum(
        outcome.completed if outcome.sim_jobs is None else outcome.sim_jobs
        for outcome in outcomes
    )
    if completed == 0:
        raise checks.CheckFailed("no job completed")
    return {
        "setup_s": setup_s,
        # Over the whole timed phase, at the reference's nominal host speed:
        # the host's speed moves in phases seconds to minutes long (NOTES.md,
        # Noise), which a whole-phase rate averages over only within a run.
        "jobs_per_s": sum(outcome.completed for _, _, outcome in timed.records)
        / _total_wall(timed)
        * timed.gauge.slowdown(),
        "served_frac": completed / offered,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_latency_p50_s": percentile(latencies, 0.50),
        "sim_latency_p99_s": percentile(latencies, 0.99),
        "sim_energy_wh_per_job": sum(o.energy_wh for o in outcomes) / sim_jobs,
        "sim_quality_mean": sum(o.quality_total for o in outcomes) / sim_jobs,
    }


def _per_layer(
    untraced: Timed,
    traced: Timed,
    tracer: Tracer,
    units: int,
    sweeps: Dict[str, int],
) -> Dict[str, float]:
    metrics: Dict[str, float] = {name: 0 for name in PER_LAYER}
    wall = tracer.root_wall()
    metrics["trace.overhead_ratio"] = _total_wall(traced) / _total_wall(untraced)
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(tracer.spans)

    first = untraced.first_pass(units)
    submit_s = [value for _, _, outcome in untraced.records for value in outcome.submit_s]
    if submit_s:
        metrics["client.submit_p50_ms"] = percentile(submit_s, 0.50) * 1e3
        metrics["client.submit_p99_ms"] = percentile(submit_s, 0.99) * 1e3
        metrics["client.submit_samples"] = len(submit_s)
    offered = sum(outcome.offered for outcome in first)
    metrics["client.failed_frac"] = sum(outcome.failed for outcome in first) / offered

    for layer, record in tracer.layer_totals().items():
        for key, value in record.items():
            if f"{layer}.{key}" in metrics:
                metrics[f"{layer}.{key}"] = value
    tallies = tracer.tallies
    allocations = metrics["cluster.allocate_calls"]
    if allocations:
        metrics["cluster.allocate_fail_ratio"] = (
            tallies["cluster:allocate:failed"] / allocations
        )
    metrics["cluster.deploy_failures"] = tallies["cluster:deploy_model:raised"]
    for outcome_name in ("admit", "defer", "degrade", "reject"):
        metrics[f"admission.{outcome_name}"] = tallies[f"admission:decide:{outcome_name}"]

    passed = traced.first_pass(units)
    counters: Dict[str, float] = {}
    for outcome in passed:
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    for name in _COUNTED:
        metrics[name] = counters.get(name, 0)
    completed = sum(outcome.completed for outcome in passed)
    metrics["sim.engine.events_per_job"] = metrics["sim.engine.events_fired"] / completed
    lookups = counters.get("core.planner.plan_cache_hits", 0) + counters.get(
        "core.planner.plan_cache_misses", 0
    )
    if lookups:
        metrics["core.planner.plan_cache_hit_ratio"] = (
            counters["core.planner.plan_cache_hits"] / lookups
        )
    if "sharding.first_result_s" in counters:
        metrics["sharding.first_result_s"] = counters["sharding.first_result_s"] / units
        metrics["sharding.worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    workers = [record for outcome in passed for record in outcome.workers]
    for record in workers:
        layers = record.get("layers", {})
        metrics["worker.serve_s"] += record.get("wall_s", 0.0)
        metrics["worker.loadgen.self_s"] += layers.get("loadgen", {}).get("self_s", 0.0)
        warm = layers.get("warmstate", {})
        metrics["worker.warmstate.load_s"] += warm.get("load_s", 0.0)
        metrics["worker.warmstate.store_s"] += warm.get("store_s", 0.0)
        metrics["worker.sim.engine.self_s"] += layers.get("sim.engine", {}).get("self_s", 0.0)
        metrics["worker.other.self_s"] += layers.get("other", {}).get("self_s", 0.0)
        metrics["worker.profiling.sweeps"] += record["sweeps"]
    metrics["profiling.setup_sweeps"] = sweeps["setup"]
    metrics["profiling.sweeps"] = sweeps["timed"]
    return metrics


def layer_table(metrics: Dict[str, float]) -> str:
    """The per-layer self-time table of a traced run: every layer (per
    operation where split) and ``other``, their sum, and the traced wall it
    must account for."""
    rows = [f"  {name:<30} {metrics[name]:>10.4f} s" for name in SELF_TIMES]
    total = sum(metrics[name] for name in SELF_TIMES)
    rows.append(f"  {'sum of self times':<30} {total:>10.4f} s")
    rows.append(f"  {'traced wall':<30} {metrics['trace.wall_s']:>10.4f} s")
    rows.append(f"  {'trace.overhead_ratio':<30} {metrics['trace.overhead_ratio']:>10.3f}")
    return "per-layer self time, traced pass\n" + "\n".join(rows)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    size: str = "full",
    started: Optional[float] = None,
    trace_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload and return the result object the CLI prints.

    ``started`` is the process-start reference for the import of the first
    set-up round (defaults to now, i.e. that import excluded).  Raises :class:`~perfbench.checks.CheckFailed`
    when an output check fails.
    """
    from repro.profiling.profiler import profiling_sweep_count

    if started is None:
        started = time.perf_counter()
    imported = time.perf_counter() - started
    workload = WORKLOADS[name](size)
    units = workload.units(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    sweeps_before = profiling_sweep_count()
    rounds = []
    state = None
    try:
        worker_sweeps = 0
        for index in range(SETUP_ROUNDS):
            if state is not None:
                workload.close(state)
            # A round is an import (the run's own first) and a set-up, taken
            # at the nominal host speed of the start-up probe run between
            # them (NOTES.md, Noise).
            import_s = imported if index == 0 else _fresh_import_s()
            probe_s = startup_probe()
            begin = time.perf_counter()
            state = workload.setup(units, workdir)
            wall = import_s + time.perf_counter() - begin
            rounds.append(wall * NOMINAL_STARTUP_S / probe_s)
            worker_sweeps += workload.setup_worker_sweeps(state)
        setup_s = statistics.median(rounds)
        sweeps = {"setup": profiling_sweep_count() - sweeps_before + worker_sweeps}

        sweeps_before = profiling_sweep_count()
        if not trace:
            untraced = _time_units(workload, state, units, seconds, workdir)
            sweeps["timed"] = profiling_sweep_count() - sweeps_before
            metrics = _end_to_end(untraced, len(units), setup_s)
            units_of = END_TO_END
        else:
            tracer = Tracer()
            untraced, traced = _time_paired(workload, state, units, seconds, workdir, tracer)
            sweeps["timed"] = profiling_sweep_count() - sweeps_before
            for index in range(len(units)):
                checks.check_same_digest(
                    f"unit {index} traced vs untraced",
                    untraced.digests[index],
                    traced.digests[index],
                )
            metrics = _per_layer(untraced, traced, tracer, len(units), sweeps)
            units_of = PER_LAYER
            if trace_path is not None:
                events = tracer.chrome_events()
                for outcome in traced.first_pass(len(units)):
                    for record in outcome.workers:
                        events.extend(record.get("events", []))
                write_chrome_trace(
                    trace_path,
                    events,
                    {"workload": name, "seed": seed, "per_layer": metrics},
                )
    finally:
        if state is not None:
            workload.close(state)

    first = untraced.first_pass(len(units))
    return {
        "correct": True,
        "attempted": sum(outcome.offered for outcome in first),
        "failed": sum(outcome.failed for outcome in first),
        "metrics": {
            key: {"value": value, "unit": units_of[key]} for key, value in metrics.items()
        },
    }
