"""Multi-tenant execution: independent workflows multiplexed on one cluster.

Figure 2 of the paper shows the promise of managing independent workflows
(Workflow A's tasks and Workflow B's tasks) jointly: the orchestrator and
cluster manager multiplex them over the same serving instances and idle
resources instead of giving each workflow a rigid, dedicated deployment.

:func:`run_submissions` is the general coordinator: it admits any number of
submissions onto one runtime's shared engine and server pool in
deterministic arrival order (batch-injected into the event queue), and
either keeps full per-job results and a merged trace (the classic two-tenant
experiment) or streams per-job accounting through a callback with bounded
retained state (the trace-serving path, where N is in the thousands).  Each
job is launched and accounted through the same
:meth:`~repro.core.runtime.MurakkabRuntime.launch` and
:meth:`~repro.core.runtime.MurakkabRuntime.result_of` as a single
``submit``, so bundle-pinned overrides, dynamics replanning and the
runtime's executor class apply identically here.

With ``window=p`` the coordinator serves the schedule in windows of ``p``
submissions each and watches for a *steady window*: once two consecutive
windows are quiescent at their boundaries (every job finished, the event
queue drained) and produce identical per-position results against an
unchanged warm pool, the remaining windows are provably repeats — they are
left unsimulated and described by the returned
:attr:`MultiTenantReport.replay_plan` so the caller can account them as
batched completion deltas (the multiplex-mode fast path in
:mod:`repro.loadgen`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

from repro.agents.base import AgentInterface
from repro.cluster.hardware import get_cpu_spec
from repro.core.execution import ExecutionError, ServerPool, WorkflowExecutor
from repro.core.job import Job, JobResult
from repro.core.planner import PlannerOverride, PlanningError
from repro.core.runtime import MurakkabRuntime
from repro.sim.energy import EnergyAccountant, EnergyBreakdown
from repro.sim.trace import ExecutionTrace
from repro.telemetry.metrics import result_digest, round_sig


@dataclass
class WindowReplayPlan:
    """How to account the unsimulated tail of a windowed steady-state run.

    Produced by :func:`run_submissions` when ``window=p`` detects a steady
    window: the confirmed window's exact :class:`JobResult` values repeat for
    every later window, translated by the window span.  The caller replays
    position ``i`` of the remaining (arrival-sorted) submissions from
    ``pattern[i % period]``: start = that window's first arrival time plus
    the slot's offset from :attr:`base`, finish = start + the slot's
    makespan.  Replayed jobs never touch the engine, so their dynamic energy
    is *not* folded into :attr:`MultiTenantReport.total_energy` (which covers
    the simulated prefix only) — callers accounting energy per job must read
    it from the pattern results.
    """

    #: Submissions per window.
    period: int
    #: Index into the (arrival_time, index)-sorted submissions where the
    #: unsimulated tail begins (always a window boundary).
    resume_at: int
    #: Admit time of the confirmed window's first submission; pattern starts
    #: are translated relative to it.
    base: float
    #: The confirmed window's results, in window-position order.
    pattern: List[JobResult] = field(default_factory=list)


@dataclass
class TenantSubmission:
    """One tenant's job plus its arrival time and optional overrides."""

    arrival_time: float
    job: Job
    overrides: Optional[Dict[AgentInterface, PlannerOverride]] = None

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")


class SubmissionSchedule(Sequence[TenantSubmission]):
    """Submissions already in admission order (arrival time, then index),
    each built on first access by ``build(position)``.

    :func:`run_submissions` serves a schedule as it is instead of sorting
    it, so a windowed run that confirms a steady window never builds the
    submissions of the tail it leaves unsimulated.
    """

    def __init__(self, size: int, build: Callable[[int], TenantSubmission]) -> None:
        self._size = size
        self._build = build
        self._built: Dict[int, TenantSubmission] = {}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(*position.indices(self._size))]
        if position < 0:
            position += self._size
        if not 0 <= position < self._size:
            raise IndexError(position)
        submission = self._built.get(position)
        if submission is None:
            submission = self._built[position] = self._build(position)
        return submission


@dataclass
class MultiTenantReport:
    """Cluster-level metrics for a multi-tenant run.

    In streaming mode (``collect_traces=False``) :attr:`job_results` and
    :attr:`merged_trace` stay empty — per-job detail is delivered through the
    ``on_result`` callback and summarised in :attr:`job_summaries` — while
    every aggregate remains exact.
    """

    job_results: Dict[str, JobResult] = field(default_factory=dict)
    merged_trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    total_energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    provisioned_gpus: int = 0
    batch_start: float = 0.0
    batch_end: float = 0.0
    completed_jobs: int = 0
    #: Workflows aborted as unrunnable under cluster dynamics.
    failed_jobs: int = 0
    #: ``job_id -> compact summary`` (always populated, bounded by caller).
    job_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Set when a windowed run confirmed a steady window and returned early;
    #: the submissions from ``replay_plan.resume_at`` on were never admitted.
    replay_plan: Optional[WindowReplayPlan] = None

    @property
    def batch_makespan_s(self) -> float:
        return self.batch_end - self.batch_start

    @property
    def total_energy_wh(self) -> float:
        return self.total_energy.gpu_wh

    def mean_job_makespan_s(self) -> float:
        if self.job_summaries:
            return sum(s["makespan_s"] for s in self.job_summaries.values()) / len(
                self.job_summaries
            )
        return 0.0


def run_submissions(
    runtime: MurakkabRuntime,
    submissions: Sequence[TenantSubmission],
    pool: Optional[ServerPool] = None,
    collect_traces: bool = True,
    on_result: Optional[Callable[[JobResult], None]] = None,
    window: Optional[int] = None,
) -> MultiTenantReport:
    """Admit every submission onto ``runtime``'s shared engine and run to done.

    Admission order is deterministic: arrival time, then submission index
    (a :class:`SubmissionSchedule` is taken as already in that order).
    The whole schedule is batch-injected into the event queue in one pass.
    Each job is orchestrated when it arrives (seeing the then-current cluster
    stats), starts executing immediately, and shares the serving-instance
    pool with every other in-flight workflow.

    With ``collect_traces=True`` (default) the report carries full per-job
    :class:`JobResult` objects and a merged execution trace.  With
    ``collect_traces=False`` each job is accounted the moment it finishes —
    ``on_result`` receives its :class:`JobResult` (with its own trace, which
    is dropped afterwards) — and only O(jobs) compact summaries plus O(1)
    energy totals are retained, so thousand-job traces don't accumulate
    per-job executor state.  One per-job attribution difference follows from
    when results are built: streaming accounts a job's idle-energy/cost share
    against the pool *as of its finish time*, while the full mode accounts
    every job against the final pool; batch totals agree between the modes.

    ``window=p`` (streaming mode, no dynamics) serves the schedule one
    window of ``p`` submissions at a time — the next window is injected only
    once the previous boundary is reached, which is observationally
    equivalent to the one-shot injection whenever no completion coincides
    exactly with a window boundary (the windowed admission discipline is
    itself deterministic either way).  When a window is *quiescent* at its
    boundary (all ``p`` jobs finished, no events pending) its per-position
    results are digested at 12 significant digits together with the pool
    signature; two consecutive identical window digests prove every later
    window repeats, so the run stops there and describes the unsimulated
    tail in :attr:`MultiTenantReport.replay_plan`.  Traces shorter than
    ``2 * window + 1`` submissions cannot confirm a repeat and are served
    exactly as ``window=None``.
    """
    if not submissions:
        raise ValueError("at least one submission is required")
    if window is not None:
        if window < 1:
            raise ValueError("window must be a positive number of submissions")
        if collect_traces:
            raise ValueError(
                "windowed steady-state detection requires collect_traces=False"
            )
        if runtime.dynamics is not None:
            raise ValueError(
                "windowed steady-state detection requires a dynamics-free run"
            )
        if len(submissions) < 2 * window + 1:
            window = None
    engine = runtime.engine
    own_pool = pool is None
    if pool is None:
        pool = ServerPool(runtime.cluster_manager, runtime.library)

    report = MultiTenantReport()
    accountant = EnergyAccountant(
        gpu_power=runtime.cluster.nodes[0].gpu_spec.power,
        cpu_power_per_core_w=get_cpu_spec().active_w_per_core,
    )
    #: ``job_id -> (job, orchestration, executor)`` of every job in flight
    #: (and, with ``collect_traces``, every finished one), in admission order.
    launched: Dict[str, tuple] = {}
    finish_times: List[float] = []
    start_times: List[float] = []
    dynamic_energy = EnergyBreakdown()
    #: Per-window result capture for the steady-window detector; cleared at
    #: every boundary so it holds O(window) state, never O(jobs).
    window_results: Optional[Dict[str, JobResult]] = (
        {} if window is not None else None
    )

    def finish_streaming(executor: WorkflowExecutor) -> None:
        job, orchestration, _ = launched.pop(executor.workflow_id)
        result = runtime.result_of(job, orchestration, executor, pool)
        start_times.append(result.started_at)
        finish_times.append(result.finished_at)
        # Fold the job's dynamic (busy) energy into the running total now;
        # fleet idle energy needs the final batch window and pool size, so it
        # is integrated once at the end.
        per_job_energy = accountant.account(executor.trace, provisioned_gpus=0)
        for category, wh in per_job_energy.dynamic_wh_by_category.items():
            dynamic_energy.dynamic_wh_by_category[category] = (
                dynamic_energy.dynamic_wh_by_category.get(category, 0.0) + wh
            )
        dynamic_energy.cpu_wh += per_job_energy.cpu_wh
        report.completed_jobs += 1
        report.job_summaries[result.job_id] = result.compact_summary()
        if window_results is not None:
            window_results[result.job_id] = result
        if on_result is not None:
            on_result(result)

    def admit(submission: TenantSubmission) -> None:
        job = submission.job
        try:
            executor, orchestration, delay = runtime.launch(
                job,
                submission.overrides,
                pool,
                on_finish=None if collect_traces else finish_streaming,
            )
        except PlanningError:
            # Under dynamics the cluster may have shrunk below any feasible
            # configuration for this job; count it and keep serving.
            if runtime.dynamics is None:
                raise
            runtime.dynamics.log.failed_jobs += 1
            report.failed_jobs += 1
            return
        executor.start(orchestration.graph, delay=delay)
        launched[job.job_id] = (job, orchestration, executor)

    # A stable sort on arrival time: ties keep submission order.
    if isinstance(submissions, SubmissionSchedule):
        ordered = submissions
    else:
        ordered = sorted(submissions, key=attrgetter("arrival_time"))

    def drain(until: Optional[float] = None) -> None:
        while True:
            try:
                engine.run(until=until)
                return
            except ExecutionError as error:
                # Under cluster dynamics a single tenant can become
                # unrunnable (its capacity failed away for good).  Abort just
                # that workflow — cancelling its events and releasing what it
                # holds — count it failed, and keep serving everyone else on
                # the shared engine.
                failed = getattr(error, "executor", None)
                if runtime.dynamics is None or failed is None:
                    raise
                failed.abort()
                runtime.dynamics.job_failed(failed)
                launched.pop(failed.workflow_id, None)
                report.failed_jobs += 1

    if window is None:
        engine.schedule_at_batch(
            (max(submission.arrival_time, engine.now), admit, (submission,))
            for submission in ordered
        )
        drain()
    else:
        period = window
        total = len(ordered)

        def schedule_window(start: int) -> float:
            """Inject one window's admissions; returns its first admit time."""
            base = max(ordered[start].arrival_time, engine.now)
            engine.schedule_at_batch(
                (max(submission.arrival_time, engine.now), admit, (submission,))
                for submission in ordered[start : start + period]
            )
            return base

        def window_digest(start: int, base: float) -> Optional[tuple]:
            """Per-position signature of a quiescent window, else ``None``."""
            if launched or engine.pending_events:
                return None
            signature: List[object] = [pool.signature()]
            for submission in ordered[start : start + period]:
                result = window_results.get(submission.job.job_id)
                if result is None:
                    return None
                signature.append(
                    (round_sig(result.started_at - base), result_digest(result))
                )
            return tuple(signature)

        previous_digest: Optional[tuple] = None
        start = 0
        base = schedule_window(0)
        while True:
            next_start = start + period
            if next_start >= total:
                drain()
                break
            drain(until=max(ordered[next_start].arrival_time, engine.now))
            digest = window_digest(start, base)
            if digest is not None and digest == previous_digest:
                # Two consecutive quiescent windows with identical results
                # against an unchanged pool: every later window is this one
                # translated by the window span.  Stop simulating and hand
                # the confirmed window's exact results to the caller.
                report.replay_plan = WindowReplayPlan(
                    period=period,
                    resume_at=next_start,
                    base=base,
                    pattern=[
                        window_results[submission.job.job_id]
                        for submission in ordered[start:next_start]
                    ],
                )
                break
            previous_digest = digest
            window_results.clear()
            start = next_start
            base = schedule_window(start)

    if collect_traces:
        merged_trace = ExecutionTrace(label="multi-tenant")
        for job_id, (job, orchestration, executor) in launched.items():
            result = runtime.result_of(job, orchestration, executor, pool)
            start_times.append(result.started_at)
            finish_times.append(result.finished_at)
            report.job_results[job_id] = result
            report.completed_jobs += 1
            report.job_summaries[job_id] = result.compact_summary()
            if on_result is not None:
                on_result(result)
            merged_trace.extend(executor.trace.intervals)
    report.batch_start = min(start_times) if start_times else 0.0
    report.batch_end = max(finish_times) if finish_times else 0.0
    report.provisioned_gpus = pool.total_gpus()
    if collect_traces:
        report.merged_trace = merged_trace
        report.total_energy = accountant.account(
            merged_trace,
            provisioned_gpus=pool.total_gpus(),
            window=(report.batch_start, report.batch_end),
        )
    else:
        idle_wh = (
            pool.total_gpus()
            * runtime.cluster.nodes[0].gpu_spec.power.idle_w
            * report.batch_makespan_s
            / 3600.0
        )
        report.total_energy = EnergyBreakdown(
            idle_wh=idle_wh,
            dynamic_wh_by_category=dict(dynamic_energy.dynamic_wh_by_category),
            cpu_wh=dynamic_energy.cpu_wh,
        )

    if own_pool:
        pool.teardown_all()
    return report

