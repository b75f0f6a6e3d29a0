"""The four serving workloads, each timed through the public API.

A workload turns a seed into a list of *units* before any timing starts; a
unit is the smallest piece of work timed on its own (one interactive
session, one served trace, one restart generation).  ``setup`` builds what
every unit reuses and is repeated several times so its median is steady;
``run_unit`` serves one unit on fresh service objects and returns a
:class:`UnitOutcome` carrying the counts and deterministic outputs the checks
and metrics need.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.capture import payload_checksum

from perfbench import checks, workerhook

#: The four registered workflows (``repro.loadgen.default_registry``).
WORKFLOWS = ("video-understanding", "newsfeed", "document-qa", "chain-of-thought")

#: Interactive submissions pick one of these objectives (None = spec default).
CONSTRAINTS = (None, "min_latency", "min_energy", "min_cost")
QUALITY_TARGETS = (None, 0.9)

#: The admission ladder of the fidelity workload: a budget of about half the
#: offered 0.15 arrivals/s, deadlines, and degrade-before-drop switched on.
FIDELITY_ADMISSION = dict(
    rate_per_s=0.08,
    burst=3.0,
    max_defer_s=20.0,
    degrade=True,
    degraded_constraint="min_latency",
    default_deadline_s=120.0,
)
FIDELITY_RATE_PER_S = 0.15
FIDELITY_FABRIC = "datacenter-3tier"

#: Grouped-trace arrival rate (jobs/s, simulated): below the four groups'
#: serial capacity, so latency reflects service and not an unbounded queue.
GROUPED_RATE_PER_S = 0.01

#: The periodic multiplex burst of ``benchmarks/test_multiplex_throughput.py``:
#: three overlapping arrivals per 40 s window, each window draining before
#: the next, so the steady-window detector confirms and replays.
BURST_PATTERN = ((0.0, "newsfeed"), (0.3, "chain-of-thought"), (0.6, "newsfeed"))
BURST_WINDOW_S = 40.0

RESTART_SHARDS = 2

#: Unit counts and sizes per workload: ``full`` is what the benchmark runs,
#: ``tiny`` is the smoke size its tests run.
SIZES = {
    "interactive": {"full": dict(sessions=96, calls=32), "tiny": dict(sessions=2, calls=12)},
    "fidelity": {"full": dict(traces=3, arrivals=1000), "tiny": dict(traces=1, arrivals=40)},
    "steady": {
        "full": dict(grouped=300_000, windows=30_000),
        "tiny": dict(grouped=2_000, windows=40),
    },
    "restart": {"full": dict(arrivals=300_000), "tiny": dict(arrivals=2_000)},
}


@dataclass
class UnitOutcome:
    """What one unit served, for the checks and the metrics."""

    offered: int
    completed: int
    rejected: int = 0
    failed: int = 0
    #: Canonical digest of the unit's deterministic output.
    digest: str = ""
    #: Simulated completion times (s), energy and quality of completed jobs.
    latencies_s: List[float] = field(default_factory=list)
    energy_wh: float = 0.0
    quality_total: float = 0.0
    #: Jobs the latency/energy/quality figures cover (None = ``completed``).
    sim_jobs: Optional[int] = None
    #: Wall time (s) of each successful interactive submission.
    submit_s: List[float] = field(default_factory=list)
    #: Layer counters read from the program's own public state.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Records written by shard workers (restart only).
    workers: List[dict] = field(default_factory=list)


def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _runtime_counters(counters: Dict[str, float], runtime) -> None:
    _add(counters, "sim.engine.events_fired", runtime.engine.events_fired)
    info = runtime.planner.plan_cache_info
    _add(counters, "core.planner.plan_cache_hits", info["hits"])
    _add(counters, "core.planner.plan_cache_misses", info["misses"])


def _report_counters(counters: Dict[str, float], report) -> None:
    _add(counters, "loadgen.simulated_jobs", report.simulated_jobs)
    _add(counters, "loadgen.replayed_jobs", report.replayed_jobs)
    _add(counters, "loadgen.replay_runs", report.replay_runs)
    _add(counters, "fabric.transfer_events", report.transfer_events)


def _cache_counters(counters: Dict[str, float], cache_counters, cache_bytes: int) -> None:
    for key in ("hits", "misses", "invalid"):
        _add(counters, f"warmstate.{key}", cache_counters.get(key, 0))
    _add(counters, "warmstate.bytes", cache_bytes)


def _trace_outcome(report, offered: int) -> UnitOutcome:
    checks.check_report_conservation(report, offered)
    return UnitOutcome(
        offered=offered,
        completed=report.jobs,
        rejected=report.rejected_jobs,
        failed=report.failed_jobs,
        latencies_s=list(report.latency_s),
        energy_wh=report.energy_wh.total,
        quality_total=report.quality.total,
    )


def _shuffled_blocks(rng: random.Random, items, count: int) -> list:
    """``count`` draws from ``items`` in shuffled blocks that each hold every
    item once: random order, but the same mix on every seed."""
    drawn: list = []
    while len(drawn) < count:
        block = list(items)
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


def _poisson(rng: random.Random, count: int, rate_per_s: float):
    """``count`` Poisson arrivals over an evenly mixed, shuffled workflow order."""
    from repro.workloads.arrival import JobArrival

    arrivals = []
    now = 0.0
    for workflow in _shuffled_blocks(rng, WORKFLOWS, count):
        now += rng.expovariate(rate_per_s)
        arrivals.append(JobArrival(now, workflow))
    return arrivals


def _fresh_process_state() -> None:
    """Forget the in-process profiling memo so set-up pays a cold start."""
    from repro.profiling.profiler import clear_default_profile_store_cache

    clear_default_profile_store_cache()


def _registry():
    from repro.loadgen import default_registry

    registry = default_registry()
    if tuple(sorted(registry.names())) != tuple(sorted(WORKFLOWS)):
        raise checks.CheckFailed(f"unexpected registered workflows: {registry.names()}")
    return registry


class Workload:
    name = ""
    why = ""
    #: Set for the traced pass; workloads with worker processes trace them.
    trace_workers = False

    def __init__(self, size: str = "full") -> None:
        self.size = SIZES[self.name][size]

    def units(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, units: list, workdir: Path):
        raise NotImplementedError

    def run_unit(self, state, unit, workdir: Path) -> UnitOutcome:
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what ``setup`` built (default: nothing)."""

    def setup_worker_sweeps(self, state) -> int:
        """Profiling sweeps ``setup`` ran in worker processes."""
        return 0


# --------------------------------------------------------------------- #
# interactive: the single-job path
# --------------------------------------------------------------------- #
class Interactive(Workload):
    name = "interactive"
    why = (
        "closed-loop single submits over a varied constraint mix: spec compile, "
        "planning and plan cache, per-job execution and the warm pool"
    )

    def units(self, seed: int) -> list:
        """Sessions of single submissions; each run of 32 calls holds every
        (workflow, constraint, quality target) combination once, in seeded
        random order."""
        rng = random.Random(seed)
        combinations = [
            (workflow, constraint, quality)
            for workflow in WORKFLOWS
            for constraint in CONSTRAINTS
            for quality in QUALITY_TARGETS
        ]
        return [
            _shuffled_blocks(rng, combinations, self.size["calls"])
            for _ in range(self.size["sessions"])
        ]

    def setup(self, units, workdir):
        from repro.client import MurakkabClient

        _fresh_process_state()
        registry = _registry()
        with MurakkabClient(registry=registry) as client:
            for workflow in WORKFLOWS:
                client.submit(workflow)
        return registry

    def run_unit(self, registry, calls, workdir):
        """One session: a fresh client (and service) serving ``calls`` one
        at a time, each submitted after the previous reply."""
        from repro.client import MurakkabClient
        from repro.core.constraints import Constraint

        outcome = UnitOutcome(offered=len(calls), completed=0)
        outputs = []
        clock = time.perf_counter
        with MurakkabClient(registry=registry) as client:
            for workflow, constraint, quality in calls:
                started = clock()
                try:
                    handle = client.submit(
                        workflow,
                        constraints=Constraint(constraint) if constraint else None,
                        quality_target=quality,
                    )
                except RuntimeError as error:
                    # The warm pool's idle instances can hold every GPU, so
                    # a deployment no longer fits: a failed submission.
                    if "cannot deploy" not in str(error):
                        raise
                    outcome.failed += 1
                    outputs.append(["failed", str(error)])
                    continue
                outcome.submit_s.append(clock() - started)
                result = handle.result
                outcome.completed += 1
                outcome.latencies_s.append(result.makespan_s)
                outcome.energy_wh += result.energy_wh
                outcome.quality_total += result.quality
                outputs.append(result.compact_summary())
            stats = client.stats
            if stats.jobs_completed != outcome.completed:
                raise checks.CheckFailed(
                    f"service recorded {stats.jobs_completed} jobs for "
                    f"{outcome.completed} successful submissions"
                )
            _runtime_counters(outcome.counters, client.service.runtime)
        checks.check_conservation(
            outcome.offered, outcome.completed, outcome.rejected, outcome.failed
        )
        outcome.digest = payload_checksum(outputs)
        return outcome


# --------------------------------------------------------------------- #
# fidelity: multiplex serving behind the admission ladder, over a fabric
# --------------------------------------------------------------------- #
class Fidelity(Workload):
    name = "fidelity"
    why = (
        "multiplex Poisson mix at 2x the admission budget over a fabric: engine, "
        "executor, allocator, per-arrival planning and admission carry the load"
    )

    def units(self, seed: int) -> list:
        rng = random.Random(seed)
        return [
            _poisson(rng, self.size["arrivals"], FIDELITY_RATE_PER_S)
            for _ in range(self.size["traces"])
        ]

    def setup(self, units, workdir):
        from repro.admission import AdmissionConfig
        from repro.service import AIWorkflowService

        _fresh_process_state()
        registry = _registry()
        admission = AdmissionConfig(**FIDELITY_ADMISSION)
        service = AIWorkflowService(fabric=FIDELITY_FABRIC)
        try:
            service.submit_trace(
                units[0][:10], registry=registry, mode="multiplex", admission=admission
            )
        finally:
            service.shutdown()
        return registry, admission

    def run_unit(self, state, arrivals, workdir):
        from repro.service import AIWorkflowService

        registry, admission = state
        service = AIWorkflowService(fabric=FIDELITY_FABRIC)
        try:
            report = service.submit_trace(
                arrivals, registry=registry, mode="multiplex", admission=admission
            )
        finally:
            service.shutdown()
        checks.check_fidelity(report)
        outcome = _trace_outcome(report, len(arrivals))
        outcome.digest = payload_checksum(report.canonical_dict())
        _runtime_counters(outcome.counters, service.runtime)
        _report_counters(outcome.counters, report)
        return outcome


# --------------------------------------------------------------------- #
# steady: both in-process replay mechanisms, writing the warm cache
# --------------------------------------------------------------------- #
class Steady(Workload):
    name = "steady"
    why = (
        "a grouped Poisson trace and a periodic multiplex burst that replay almost "
        "every job, on a fresh service that writes its warm cache"
    )

    def units(self, seed: int) -> list:
        from repro.workloads.arrival import JobArrival

        rng = random.Random(seed)
        grouped = _poisson(rng, self.size["grouped"], GROUPED_RATE_PER_S)
        burst = [
            JobArrival(window * BURST_WINDOW_S + offset, workflow)
            for window in range(self.size["windows"])
            for offset, workflow in BURST_PATTERN
        ]
        return [(grouped, burst)]

    def setup(self, units, workdir):
        from repro.service import AIWorkflowService

        _fresh_process_state()
        registry = _registry()
        grouped, burst = units[0]
        cache_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        service = AIWorkflowService(warm_cache=cache_dir)
        try:
            service.submit_trace(grouped[:50], registry=registry)
        finally:
            service.shutdown()
            shutil.rmtree(cache_dir)
        return registry

    def run_unit(self, registry, unit, workdir):
        from repro.service import AIWorkflowService

        grouped, burst = unit
        cache_dir = Path(tempfile.mkdtemp(prefix="steady-", dir=workdir))
        try:
            service = AIWorkflowService(warm_cache=cache_dir)
            try:
                first = service.submit_trace(grouped, registry=registry)
                second = service.submit_trace(burst, registry=registry, mode="multiplex")
            finally:
                service.shutdown()
            cache = service.warm_cache
            cache_counters, cache_bytes = cache.counters(), cache.total_size_bytes()
        finally:
            shutil.rmtree(cache_dir)
        checks.check_replay_fired("grouped trace", first)
        checks.check_replay_fired("multiplex burst", second)
        checks.check_report_conservation(second, len(burst))
        # The paper's outcomes come from the grouped trace; the burst adds
        # only its completions.
        outcome = _trace_outcome(first, len(grouped))
        outcome.sim_jobs = first.jobs
        outcome.offered += len(burst)
        outcome.completed += second.jobs
        outcome.digest = payload_checksum([first.canonical_dict(), second.canonical_dict()])
        _runtime_counters(outcome.counters, service.runtime)
        _report_counters(outcome.counters, first)
        _report_counters(outcome.counters, second)
        _cache_counters(outcome.counters, cache_counters, cache_bytes)
        return outcome


# --------------------------------------------------------------------- #
# restart: warm rolling restart of a 2-shard process endpoint
# --------------------------------------------------------------------- #
@dataclass
class Generation:
    """One restart generation as the parent saw it."""

    report: object
    stats: object
    #: The per-shard workers' own records (profiling sweeps, traced layers).
    workers: List[dict]
    cache_counters: Dict[str, int]
    #: Service construction to merged report, in wall seconds.
    first_result_s: float


@dataclass
class RestartState:
    registry: object
    cache_dir: Path
    worker_dir: Path
    cold_aggregates: Dict[str, object]
    cold_sweeps: List[int]


class Restart(Workload):
    name = "restart"
    why = (
        "warm rolling restart of a 2-shard process endpoint: warm-cache reads, "
        "worker spawn, shard IPC and report merge"
    )

    def units(self, seed: int) -> list:
        return [_poisson(random.Random(seed), self.size["arrivals"], GROUPED_RATE_PER_S)]

    def setup(self, units, workdir):
        """One cold generation into an empty per-shard cache directory."""
        _fresh_process_state()
        registry = _registry()
        cache_dir = Path(tempfile.mkdtemp(prefix="restart-", dir=workdir))
        worker_dir = cache_dir.with_name(cache_dir.name + "-workers")
        cold = self._generation(registry, units[0], cache_dir, worker_dir)
        checks.check_report_conservation(cold.report, len(units[0]))
        if cold.report.warm_trace or cold.report.simulated_jobs == 0:
            raise checks.CheckFailed("cold generation did not simulate")
        return RestartState(
            registry=registry,
            cache_dir=cache_dir,
            worker_dir=worker_dir,
            cold_aggregates=checks.aggregates(cold.report, cold.stats),
            cold_sweeps=[record["sweeps"] for record in cold.workers],
        )

    def setup_worker_sweeps(self, state) -> int:
        return sum(state.cold_sweeps)

    def close(self, state) -> None:
        shutil.rmtree(state.cache_dir, ignore_errors=True)
        shutil.rmtree(state.worker_dir, ignore_errors=True)

    def _generation(self, registry, arrivals, cache_dir, worker_dir) -> Generation:
        """Construct the sharded service, serve the trace, shut it down."""
        from repro.sharding import ShardedService

        with workerhook.attach(worker_dir, trace=self.trace_workers):
            _fresh_process_state()
            started = time.perf_counter()
            service = ShardedService(
                shards=RESTART_SHARDS,
                backend="process",
                warm_cache=cache_dir,
                registry=registry,
            )
            try:
                report = service.submit_trace(arrivals, registry=registry)
                first_result_s = time.perf_counter() - started
            finally:
                service.shutdown()
        workers = workerhook.collect(worker_dir)
        if len(workers) != RESTART_SHARDS:
            raise checks.CheckFailed(
                f"{len(workers)} shard workers reported; expected {RESTART_SHARDS}"
            )
        return Generation(
            report, service.stats, workers, service.warm_cache_counters(), first_result_s
        )

    def run_unit(self, state, arrivals, workdir):
        from repro.warmstate import WarmStateCache

        warm = self._generation(state.registry, arrivals, state.cache_dir, state.worker_dir)
        report = warm.report
        checks.check_warm_generation(
            report,
            warm.stats,
            [record["sweeps"] for record in warm.workers],
            state.cold_aggregates,
        )
        outcome = _trace_outcome(report, len(arrivals))
        outcome.digest = payload_checksum(report.canonical_dict())
        outcome.workers = warm.workers
        _report_counters(outcome.counters, report)
        _cache_counters(
            outcome.counters,
            warm.cache_counters,
            WarmStateCache(state.cache_dir).total_size_bytes(include_shards=True),
        )
        outcome.counters["sharding.first_result_s"] = warm.first_result_s
        return outcome


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload for workload in (Interactive, Fidelity, Steady, Restart)
}
