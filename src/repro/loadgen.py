"""Trace-driven load generation for the AIWaaS endpoint.

:class:`ServiceLoadGenerator` serves a whole arrival trace
(:class:`~repro.workloads.arrival.JobArrival` schedules — Poisson, uniform,
bursty, diurnal, from ``repro.workloads.arrival``) on the service's **one
shared** :class:`~repro.sim.engine.SimulationEngine`.  Every arrival names
a workload of a :class:`WorkloadRegistry`: a declarative
:class:`~repro.spec.ir.WorkflowSpec` whose inputs were materialized once, so
all jobs of one workload are identical by construction.  Two modes:

* ``mode="grouped"`` (default, the throughput path) serves jobs FIFO
  through the standard submission path, grouped by ``(workload,
  constraints, quality_target)``; a single-job trace is byte-identical to
  ``submit()``.
* ``mode="multiplex"`` (the fidelity path) admits every job at its arrival
  time and interleaves them on the shared engine and warm server pool via
  :func:`repro.core.multitenant.run_submissions` (true Figure-2
  multiplexing); jobs are stamped from one compiled template per admission
  group.

Both modes run every arrival through one admission step (the rate-limit /
deadline-feasibility ladder of :mod:`repro.admission`, and one QoE record
per arrival for the capture collector) and share one **confirm-then-replay
core**: once a behaviour is confirmed — the same result twice under an
unchanged serving context (warm pool, profile store, dynamics, policy) — it
becomes a replay *slot* in a sink's slot table, and the later jobs it covers
reach the sink as columns (job ids; arrival, start and finish floats; slot
indices) instead of pipeline runs.  Three pattern sources feed the core:

* the **grouped memo**: one slot per group whose last two probes matched;
  any change of serving context makes the group re-converge;
* the **multiplex window**: ``period`` slots from a confirmed repeating
  window of arrivals (:class:`~repro.core.multitenant.WindowReplayPlan`);
  ``multiplex_window=0`` disables detection;
* the **warm recording**: the persisted
  :class:`~repro.warmstate.ReplayRecord` slots of an identical earlier
  trace, replayed with zero probes.

The default sink accounts each batch of columns as numpy arrays.  An
untracked run (no admission controller, no QoE collector) hands it whole
batches: per replayed row only the FIFO start/finish recurrence stays a
Python expression, and under the default :class:`TraceJobIds` naming the key
column holds trace indices, so job ids are rendered only for the rows the
capped details keep.  A caller's ``job_ids`` is still called once per
arrival, in admission order, and tracked runs go arrival by arrival.
``vectorized=False`` schedules one engine completion event per row instead,
the reference path the differential tests compare against.  Telemetry
streams into bounded :class:`~repro.telemetry.metrics.StreamingAggregate`
accumulators (plus the service's capped
:class:`~repro.service.ServiceStats`), so a 10k-job replay holds O(groups)
state, not O(jobs).
"""

from __future__ import annotations

import math
import re
import time as _wall_time
from dataclasses import dataclass, field, replace as dataclass_replace
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.admission import AdmissionController, admission_of
from repro.core.constraints import DEFAULT_PRIORITY
from repro.core.execution import ExecutionError
from repro.core.job import Job, JobResult
from repro.core.multitenant import TenantSubmission
from repro.core.planner import PlanningError
from repro.sim.energy import EnergyBreakdown
from repro.spec.compiler import check_spec, compile_spec, materialize_inputs
from repro.telemetry.metrics import (
    StreamingAggregate,
    ThroughputMeter,
    evict_oldest,
    result_digest,
    round_sig,
    sequential_sum,
)
from repro.warmstate import ReplayRecord, TraceRecording, trace_context_key
from repro.workloads.arrival import ArrivalColumns, JobArrival

#: Group-key suffix for the degraded-quality variant of a workload: degraded
#: jobs plan differently, so they converge to their own steady state and
#: never pollute the full-quality group's memo.
DEGRADED_SUFFIX = "@degraded"

#: The keys of :meth:`JobResult.compact_summary`, in a slot's value order.
_SUMMARY_KEYS = ("makespan_s", "energy_wh", "cost", "quality")

# --------------------------------------------------------------------- #
# Workload registry
# --------------------------------------------------------------------- #


class UnknownWorkloadError(KeyError):
    """An unregistered workload name was requested; lists what exists."""

    def __init__(self, name: str, registered: Sequence[str]):
        self.workload = name
        self.registered = list(registered)
        super().__init__(
            f"unknown workload {name!r}; registered: {self.registered}"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its message; keep it human-readable.
        return self.args[0] if self.args else "unknown workload"


class WorkloadRegistry:
    """Named workloads, each a declarative
    :class:`~repro.spec.ir.WorkflowSpec` with its inputs materialized once.

    :meth:`register_spec` validates a spec eagerly and materializes its
    input source into a tuple every job of the workload shares, so jobs of
    one workload are identical by construction — the property that lets the
    load generator reuse one plan and one steady-state record per group.
    The spec stays retrievable via :meth:`spec` for capture/replay.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[object, Tuple[object, ...]]] = {}

    def register_spec(self, spec, name: str = "") -> str:
        """Register a declarative workflow spec as a named workload.

        Validates eagerly (structural checks plus the decomposition
        cross-check) and materializes the spec's input source once.
        Returns the registered name (``spec.name`` unless overridden).
        """
        check_spec(spec)
        name = name or spec.name
        if not name:
            raise ValueError("workload name must be non-empty")
        self._entries[name] = (spec, tuple(materialize_inputs(spec)))
        return name

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def _entry(self, name: str) -> Tuple[object, Tuple[object, ...]]:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownWorkloadError(name, self.names()) from None

    def spec(self, name: str):
        """The :class:`~repro.spec.ir.WorkflowSpec` behind a registered
        workload."""
        return self._entry(name)[0]

    def materialized_inputs(self, name: str) -> Tuple[object, ...]:
        """The input corpus materialized once at :meth:`register_spec` time,
        so callers compiling variants of a registered spec can share it
        instead of regenerating the corpus per job."""
        return self._entry(name)[1]

    def build(self, name: str, job_id: str) -> Job:
        spec, inputs = self._entry(name)
        return compile_spec(spec, inputs=inputs, job_id=job_id)


def default_registry() -> WorkloadRegistry:
    """The four named paper workloads, registered from their declarative
    specs with inputs materialized once and shared.

    Sharing the synthetic inputs across jobs is what makes jobs of a group
    identical (and job construction nearly free): every ``video-understanding``
    arrival sees the same paper videos, every ``newsfeed`` arrival the same
    post stream, and so on.
    """
    from repro.workflows.chain_of_thought import chain_of_thought_spec
    from repro.workflows.document_qa import document_qa_spec
    from repro.workflows.newsfeed import newsfeed_spec
    from repro.workflows.video_understanding import video_understanding_spec

    registry = WorkloadRegistry()
    registry.register_spec(video_understanding_spec())
    registry.register_spec(newsfeed_spec())
    registry.register_spec(document_qa_spec())
    registry.register_spec(chain_of_thought_spec())
    return registry


# --------------------------------------------------------------------- #
# Job naming
# --------------------------------------------------------------------- #


#: The index an id rendered by :class:`TraceJobIds` starts with.
_TRACE_INDEX = re.compile(r"trace-([0-9]+)-")


class TraceJobIds:
    """The job ids a trace gets unless its caller names the jobs:
    ``trace-{index:05d}-{workload}``, ``index`` being the arrival's position
    in the whole trace.

    A shard serving a sub-trace passes the whole-trace index of each of its
    arrivals as ``global_indices``, so its ids are exactly the ones an
    unsharded serving of the trace gives.  The naming is stateless and
    distinct trace indices render distinct ids, so replay keeps a replayed
    job's trace index and renders its id only where a capped per-job detail
    keeps it.
    """

    __slots__ = ("global_indices",)

    def __init__(self, global_indices: Optional[Sequence[int]] = None) -> None:
        if isinstance(global_indices, _np.ndarray):
            # Indexed once per named job: plain ints, never numpy scalars.
            global_indices = global_indices.tolist()
        self.global_indices = global_indices

    def __call__(self, index: int, workload: str) -> str:
        if self.global_indices is not None:
            index = self.global_indices[index]
        return f"trace-{index:05d}-{workload}"


class _TraceIndexIds:
    """One run's :class:`TraceJobIds`, rendered on demand from trace indices.

    Built before the run touches the engine: it notes, for each capped
    mapping the run writes, the keys earlier work left there that this run
    would render again (a re-served trace, or another trace's ids under the
    same naming).  Every other key is either foreign to this naming or names
    a trace index the run has already served, so a batch of the run's rows
    can collide only with a noted key still held.
    """

    def __init__(
        self, naming: TraceJobIds, arrivals: ArrivalColumns, mappings: Sequence[Dict]
    ) -> None:
        self.naming = naming
        self.arrivals = arrivals
        self._held = [(mapping, self._rendered_again(mapping)) for mapping in mappings]

    def render(self, indices) -> List[str]:
        naming, codes, names = self.naming, self.arrivals.codes, self.arrivals.names
        return [naming(index, names[codes[index]]) for index in indices]

    def _rendered_again(self, mapping: Dict) -> Dict[int, str]:
        """``{trace index: key}`` of the keys of ``mapping`` this run renders:
        each key is parsed for its index and compared with the id rendered
        from it, so the match is exact and costs O(len(mapping))."""
        naming, codes, names = self.naming, self.arrivals.codes, self.arrivals.names
        local: Optional[Dict[int, int]] = None
        found: Dict[int, str] = {}
        for key in mapping:
            match = _TRACE_INDEX.match(key) if isinstance(key, str) else None
            if match is None:
                continue
            index: Optional[int] = int(match[1])
            if naming.global_indices is not None:
                if local is None:
                    local = {g: i for i, g in enumerate(naming.global_indices)}
                index = local.get(index)
            if index is None or index >= len(codes):
                continue
            if naming(index, names[codes[index]]) == key:
                found[index] = key
        return found

    def fresh(self, mapping: Dict, indices) -> bool:
        """Whether no row of the batch ``indices`` renders a key of ``mapping``.

        The rows render distinct ids (one trace index each), so only a noted
        key still held can collide, and only through its own index.
        """
        live = None
        for held, again in self._held:
            if held is mapping:
                live = {index for index, key in again.items() if key in mapping}
                break
        if live is not None and not live:
            return True
        if isinstance(indices, _np.ndarray):
            indices = indices.tolist()
        if live is None:
            # A mapping noted at no run start: compare every rendered id.
            return mapping.keys().isdisjoint(self.render(indices))
        return live.isdisjoint(indices)


class _IdColumn:
    """The job ids of one batch of replayed rows: built ids, or trace indices
    that the run's :class:`_TraceIndexIds` renders only where needed."""

    __slots__ = ("keys", "source", "_distinct")

    def __init__(self, keys, source: Optional[_TraceIndexIds] = None) -> None:
        self.keys = keys
        self.source = source
        self._distinct: Optional[bool] = None

    def __len__(self) -> int:
        return len(self.keys)

    def tail(self, start: int) -> List[str]:
        """The ids of the rows from ``start`` on."""
        keys = self.keys[start:]
        if isinstance(keys, _np.ndarray):
            keys = keys.tolist()
        return list(keys) if self.source is None else self.source.render(keys)

    def fresh(self, mapping: Dict) -> bool:
        """No id repeats within the batch and none is a key of ``mapping``."""
        if self.source is not None:
            return self.source.fresh(mapping, self.keys)
        if self._distinct is None:
            self._distinct = len(set(self.keys)) == len(self.keys)
        return self._distinct and mapping.keys().isdisjoint(self.keys)


# --------------------------------------------------------------------- #
# The replay core: slots and sinks
# --------------------------------------------------------------------- #


class _ReplaySlot(NamedTuple):
    """One confirmed served result, replayable at any start time.

    Built once per confirmation — a grouped memo, a multiplex window
    position, or a persisted :class:`~repro.warmstate.ReplayRecord`.
    ``values`` is ``(makespan_s, energy_wh, cost, quality)``, the exact
    floats per-job accounting observes; ``transfer`` is ``(transfer_s,
    transferred_bytes, cross_rack_bytes, transfer_wh, transfer_events)``, or
    ``None`` when the result moved no costed bytes (every result, on
    fabric-free runs).  ``result`` is the confirmed
    :class:`~repro.core.job.JobResult` the reference sink stamps completions
    from; recording slots carry none (recordings replay only through the
    vectorized sink).
    """

    values: Tuple[float, float, float, float]
    transfer: Optional[Tuple[float, int, int, float, int]] = None
    result: Optional[JobResult] = None

    @classmethod
    def of(cls, result: JobResult) -> "_ReplaySlot":
        transfer = (
            (
                result.transfer_s,
                result.transferred_bytes,
                result.cross_rack_bytes,
                result.transfer_wh,
                result.transfer_events,
            )
            if result.transfer_events
            else None
        )
        values = (result.makespan_s, result.energy_wh, result.cost, result.quality)
        return cls(values, transfer, result)

    def stamp(self, job_id: str, started_at: float, finished_at: float) -> JobResult:
        """A replayed completion of this slot, as the reference sink accounts it."""
        source = self.result
        energy = source.energy
        return JobResult(
            job_id=job_id,
            makespan_s=source.makespan_s,
            started_at=started_at,
            finished_at=finished_at,
            energy=EnergyBreakdown(
                idle_wh=energy.idle_wh,
                dynamic_wh_by_category=dict(energy.dynamic_wh_by_category),
                cpu_wh=energy.cpu_wh,
            ),
            cost=source.cost,
            quality=source.quality,
            plan=source.plan,
            provisioned_gpus=source.provisioned_gpus,
            transfer_s=source.transfer_s,
            transferred_bytes=source.transferred_bytes,
            cross_rack_bytes=source.cross_rack_bytes,
            transfer_wh=source.transfer_wh,
            transfer_events=source.transfer_events,
        )


class _ReplaySink:
    """Where every pattern source sends its replayed completions, as columns.

    A source puts each confirmed slot into the sink's small slot table once
    (:meth:`register`) and then either appends its rows one at a time into
    :attr:`columns`, in completion order, or hands over a whole batch of
    columns (lists or numpy arrays) with :meth:`add`.  ``flush()`` accounts
    the buffered rows before the engine moves on (a probe, a disruption):
    this sink as numpy arrays (:meth:`ServiceLoadGenerator._account_run`),
    :class:`_EventSink` as one engine event per row.  ``close(last_finish)``
    flushes, drains the engine, and leaves its clock at the last completion.

    The key column holds job ids, or trace indices when the sink is given
    the run's :class:`_TraceIndexIds` (``ids``).
    """

    def __init__(
        self,
        generator: "ServiceLoadGenerator",
        report: "TraceReport",
        ids: Optional[_TraceIndexIds] = None,
    ) -> None:
        self.generator = generator
        self.report = report
        self.ids = ids
        #: The slot table the slot-index column points into.
        self.slots: List[_ReplaySlot] = []
        #: Job keys, arrival times, starts, finishes, slot indices.
        self.columns: Tuple[list, list, list, list, list] = ([], [], [], [], [])

    def register(self, slots: Sequence[_ReplaySlot]) -> int:
        """Append ``slots`` to the slot table; returns the first one's index."""
        self.slots.extend(slots)
        return len(self.slots) - len(slots)

    def add(self, keys, arrivals_at, starts, finishes, rows) -> None:
        """Account one whole batch of rows, after any buffered ones."""
        self.flush()
        self._account((keys, arrivals_at, starts, finishes, rows))

    def flush(self) -> None:
        if self.columns[0]:
            self._account(self.columns)
            for column in self.columns:
                column.clear()

    def _account(self, columns) -> None:
        ids = _IdColumn(columns[0], self.ids)
        self.generator._account_run(self.report, self.slots, (ids, *columns[1:]))

    def close(self, last_finish: float) -> None:
        self.flush()
        engine = self.generator.service.runtime.engine
        engine.run()
        if engine.now < last_finish:
            # Array-accounted completions never entered the event queue;
            # bring the shared clock to the last one, exactly where the
            # reference path's final event leaves it.
            engine.run(until=last_finish)


class _EventSink(_ReplaySink):
    """The ``vectorized=False`` reference: one engine event per replayed row."""

    def _account(self, columns) -> None:
        slots, complete = self.slots, self._complete_replay
        rows = zip(
            *(
                column.tolist() if isinstance(column, _np.ndarray) else column
                for column in columns
            )
        )
        self.generator.service.runtime.engine.schedule_at_batch(
            (finish, complete, (slots[row].stamp(job_id, start, finish), arrived))
            for job_id, arrived, start, finish, row in rows
        )

    def _complete_replay(self, result: JobResult, arrival_at: float) -> None:
        """Fires on the shared engine at the job's completion watermark."""
        service = self.generator.service
        service.runtime.engine.mark(result.job_id)
        service.stats.record(result)
        self.report.account(result, arrival_at, simulated=False)


class _SteadyColumns:
    """Columnar grouped serving for an untracked run without dynamics: the
    runs of arrivals whose group replays a confirmed slot, found and
    accounted as columns.

    ``codes`` numbers each admission position's group; ``live`` holds, per
    group code, the group whose confirmed slot replays under the current
    serving context (``None``: it probes), and ``rows`` that slot's row
    (``-1``: none).  Both are refreshed after every probe.  A run of
    replayed arrivals ends at the first arrival whose group has no live
    row, which is the next probe.
    """

    #: Positions :meth:`end_of_run` looks at first; it doubles the look
    #: ahead while every position replays, so finding a run costs O(run).
    _LOOKAHEAD = 64

    def __init__(
        self,
        sink: _ReplaySink,
        arrivals: ArrivalColumns,
        order: _np.ndarray,
        codes: _np.ndarray,
        epoch: float,
        job_ids: Callable[[int, str], str],
    ) -> None:
        self.sink = sink
        self.names = arrivals.names
        self.epoch = epoch
        self.job_ids = job_ids
        #: Trace indices, and their workload codes, in admission order.
        self.indices = order
        self.codes = codes
        self.times = arrivals.times
        self.live: List[Optional[GroupState]] = [None] * len(self.names)
        self.rows = _np.full(len(self.names), -1, dtype=_np.intp)

    def refresh(self, groups: Dict[str, "GroupState"], context: tuple) -> None:
        """Recompute the live groups after a probe changed a group or the context."""
        for code, name in enumerate(self.names):
            group = groups.get(name)
            if group is None or group.steady is None or group.steady_context != context:
                group = None
            self.live[code] = group
            self.rows[code] = -1 if group is None else group.steady_row

    def end_of_run(self, position: int) -> int:
        """The first position from ``position`` on whose group has no live
        row (the end of the trace if every one has)."""
        n = len(self.codes)
        step = self._LOOKAHEAD
        while position < n:
            window = self.rows[self.codes[position : position + step]]
            misses = _np.flatnonzero(window < 0)
            if misses.size:
                return position + int(misses[0])
            position += step
            step *= 2
        return n

    def account(
        self,
        start: int,
        end: int,
        previous_finish: float,
        recording: Optional[TraceRecording],
    ) -> Tuple[float, Optional[TraceRecording]]:
        """Hand the sink the replayed positions ``[start, end)`` as one batch.

        The FIFO recurrence is the per-row loop's, operation for operation:
        ``start = max(previous finish, arrival)``, ``finish = start +
        makespan``.  Returns the last finish and the recording, ``None`` once
        a row replays a slot the recording does not hold.
        """
        sink = self.sink
        indices = self.indices[start:end]
        codes = self.codes[start:end]
        rows = self.rows[codes]
        arrival_col = self.epoch + self.times[indices]
        makespans = _np.array([slot.values[0] for slot in sink.slots])[rows]
        finish = previous_finish
        finish_col = [
            finish := (finish if finish > arrival else arrival) + makespan
            for arrival, makespan in zip(arrival_col.tolist(), makespans.tolist())
        ]
        before = _np.empty(len(finish_col))
        before[0] = previous_finish
        before[1:] = finish_col[:-1]
        start_col = _np.where(before > arrival_col, before, arrival_col)
        counts = _np.bincount(codes, minlength=len(self.live)).tolist()
        for group, count in zip(self.live, counts):
            if count:
                group.replayed += count
                if group.steady_record is None:
                    recording = None
        if recording is not None:
            records = [-1 if group is None else group.steady_record for group in self.live]
            recording.script.extend(_np.array(records)[codes].tolist())
        if sink.ids is not None:
            keys = indices
        else:
            names, job_ids = self.names, self.job_ids
            keys = [
                job_ids(index, names[code])
                for index, code in zip(indices.tolist(), codes.tolist())
            ]
        sink.add(keys, arrival_col, start_col, finish_col, rows)
        return finish, recording


@dataclass
class GroupState:
    """Per-(workload, constraints, quality_target) admission-group state."""

    workload: str
    #: The confirmed slot every further job of the group replays, valid only
    #: under :attr:`steady_context`, and its index in the sink's slot table.
    steady: Optional[_ReplaySlot] = None
    steady_row: int = 0
    #: The serving context (:meth:`ServiceLoadGenerator._context`) the slot
    #: was confirmed under; any change forces the group to re-converge.
    steady_context: Optional[tuple] = None
    #: (result digest, serving context) of the most recent simulated job.
    last_observation: Optional[tuple] = None
    simulated: int = 0
    replayed: int = 0
    #: Index of the steady record in the trace recording being captured
    #: (``None`` when no recording is active for this steady state).
    steady_record: Optional[int] = None
    #: Most recent observed makespan of this group (set by every probe) —
    #: the admission controller's deadline-feasibility estimate.
    estimate: Optional[float] = None

    def counters(self) -> Dict[str, int]:
        return {"simulated": self.simulated, "replayed": self.replayed}


@dataclass
class TraceReport:
    """Streaming service-level accounting for one served arrival trace."""

    mode: str = "grouped"
    jobs: int = 0
    simulated_jobs: int = 0
    replayed_jobs: int = 0
    #: How many contiguous steady-state runs were accounted at array level
    #: (0 on the per-arrival reference path).
    replay_runs: int = 0
    #: True when the whole trace was replayed from a persistent warm-state
    #: recording — zero probe simulations ran.
    warm_trace: bool = False
    makespan_s: StreamingAggregate = field(default_factory=StreamingAggregate)
    energy_wh: StreamingAggregate = field(default_factory=StreamingAggregate)
    cost: StreamingAggregate = field(default_factory=StreamingAggregate)
    quality: StreamingAggregate = field(default_factory=StreamingAggregate)
    queue_delay_s: StreamingAggregate = field(default_factory=StreamingAggregate)
    throughput: ThroughputMeter = field(default_factory=ThroughputMeter)
    #: Per-group simulated/replayed counters keyed by workload name.
    groups: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Wall-clock cost of serving the trace (the differential metric the
    #: benchmark gate watches).
    wall_seconds: float = 0.0
    #: Most recent per-job summaries, capped (oldest evicted).
    job_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    max_job_summaries: Optional[int] = 64
    #: Jobs that could not be served because cluster dynamics shrank the
    #: cluster past recovery (planning or execution failed).
    failed_jobs: int = 0
    #: Disruption counters copied from the dynamics log after a run under a
    #: preemption/failure schedule; empty when no dynamics were attached.
    disruptions: Dict[str, int] = field(default_factory=dict)
    #: Per-shard provenance counters, filled by :meth:`merge` when reports
    #: from a :class:`~repro.sharding.ShardedService` are folded into one
    #: global view; empty for a report served by a single engine.
    shards: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: True when the trace was served under an admission controller; the
    #: shed counters below are only meaningful (and only summarised) then.
    admission_controlled: bool = False
    #: Jobs admitted at a reduced quality target (degrade-before-drop).
    degraded_jobs: int = 0
    #: Jobs admitted after waiting for rate-limit tokens.
    deferred_jobs: int = 0
    #: Arrivals shed outright; never served, excluded from :attr:`jobs`.
    rejected_jobs: int = 0
    #: Admitted jobs that finished past their deadline SLO (optimistic
    #: admits made before the workload's makespan had been observed).
    slo_violations: int = 0
    #: Per-priority-class counters (jobs/degraded/deferred/rejected/
    #: slo_violations), keyed by class name.
    priority_classes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-priority-class end-to-end latency (finish - arrival) aggregates.
    priority_latency: Dict[str, StreamingAggregate] = field(default_factory=dict)
    #: End-to-end latency samples (finish - arrival) for percentile
    #: reporting, capped at :attr:`max_latency_samples` (first N kept).
    latency_s: List[float] = field(default_factory=list)
    max_latency_samples: Optional[int] = 100_000
    #: Costed inter-stage data movement over the attached fabric; all zero
    #: (and omitted from summaries) when no fabric is attached or the
    #: fabric moves every payload for free.
    transfer_events: int = 0
    transferred_bytes: int = 0
    cross_rack_bytes: int = 0
    transfer_s: float = 0.0
    transfer_wh: float = 0.0

    @property
    def batch_start(self) -> float:
        return self.throughput.first_start if self.jobs else 0.0

    @property
    def batch_end(self) -> float:
        return self.throughput.last_finish if self.jobs else 0.0

    @property
    def batch_makespan_s(self) -> float:
        return self.throughput.span_s

    @property
    def jobs_per_second(self) -> float:
        """Simulated-time serving throughput."""
        return self.throughput.jobs_per_second

    @property
    def wall_jobs_per_second(self) -> float:
        """Wall-clock serving throughput of the harness itself."""
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def account(self, result: JobResult, arrival_time: float, simulated: bool) -> None:
        self.jobs += 1
        if simulated:
            self.simulated_jobs += 1
        else:
            self.replayed_jobs += 1
        self.makespan_s.add(result.makespan_s)
        self.energy_wh.add(result.energy_wh)
        self.cost.add(result.cost)
        self.quality.add(result.quality)
        self.queue_delay_s.add(max(0.0, result.started_at - arrival_time))
        self.throughput.record(result.started_at, result.finished_at)
        self.add_latency(result.finished_at - arrival_time)
        if result.transfer_events:
            self.transfer_events += result.transfer_events
            self.transferred_bytes += result.transferred_bytes
            self.cross_rack_bytes += result.cross_rack_bytes
            self.transfer_s += result.transfer_s
            self.transfer_wh += result.transfer_wh
        self.job_summaries[result.job_id] = result.compact_summary()
        evict_oldest(self.job_summaries, self.max_job_summaries)

    def add_latency(self, latency: float) -> None:
        if (
            self.max_latency_samples is None
            or len(self.latency_s) < self.max_latency_samples
        ):
            self.latency_s.append(latency)

    def latency_percentiles(
        self, percentiles: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        """Nearest-rank latency percentiles over the retained samples."""
        ordered = sorted(self.latency_s)
        out: Dict[str, float] = {}
        for p in percentiles:
            key = f"p{format(p * 100, 'g')}"
            if not ordered:
                out[key] = 0.0
            else:
                rank = max(0, math.ceil(p * len(ordered)) - 1)
                out[key] = ordered[min(rank, len(ordered) - 1)]
        return out

    def class_counters(self, priority: str) -> Dict[str, int]:
        """The (created-on-demand) counter record for one priority class."""
        return self.priority_classes.setdefault(
            priority,
            {
                "jobs": 0,
                "degraded": 0,
                "deferred": 0,
                "rejected": 0,
                "slo_violations": 0,
            },
        )

    def class_latency(self, priority: str) -> StreamingAggregate:
        return self.priority_latency.setdefault(priority, StreamingAggregate())

    def provenance(self) -> Dict[str, object]:
        """The compact per-shard accounting record :meth:`merge` stores."""
        data: Dict[str, object] = {
            "jobs": self.jobs,
            "simulated_jobs": self.simulated_jobs,
            "replayed_jobs": self.replayed_jobs,
            "failed_jobs": self.failed_jobs,
            "wall_seconds": self.wall_seconds,
            "warm_trace": self.warm_trace,
        }
        # Admission-free runs keep the exact provenance shape they always
        # had; only admission-controlled shards carry shed counters.
        if self.admission_controlled:
            data["degraded_jobs"] = self.degraded_jobs
            data["deferred_jobs"] = self.deferred_jobs
            data["rejected_jobs"] = self.rejected_jobs
            data["slo_violations"] = self.slo_violations
        return data

    def merge(self, other: "TraceReport", shard: Optional[int] = None) -> "TraceReport":
        """Fold ``other`` into this report, producing one exact global view.

        Counts add, streaming aggregates merge (totals add, extrema take
        min/max), the throughput span covers both runs, and per-group /
        disruption counters sum per key.  Counter merging is associative and
        order-insensitive; float totals are associative only up to IEEE-754
        rounding (addition is commutative but not associative), which is the
        usual contract for parallel reduction.  ``wall_seconds`` takes the
        max — merged runs are presumed concurrent; a sharded service
        overwrites it with the measured parent wall clock anyway.

        ``shard`` records ``other``'s provenance under that shard id in
        :attr:`shards`; provenance already carried by either side is kept.
        Returns ``self`` so merges chain.
        """
        if other.mode != self.mode:
            raise ValueError(
                f"cannot merge a {other.mode!r} report into a {self.mode!r} report"
            )
        self.jobs += other.jobs
        self.simulated_jobs += other.simulated_jobs
        self.replayed_jobs += other.replayed_jobs
        self.replay_runs += other.replay_runs
        self.warm_trace = self.warm_trace and other.warm_trace
        self.makespan_s.merge(other.makespan_s)
        self.energy_wh.merge(other.energy_wh)
        self.cost.merge(other.cost)
        self.quality.merge(other.quality)
        self.queue_delay_s.merge(other.queue_delay_s)
        self.throughput.merge(other.throughput)
        for workload, counters in other.groups.items():
            mine = self.groups.setdefault(workload, {})
            for key, value in counters.items():
                mine[key] = mine.get(key, 0) + value
        self.wall_seconds = max(self.wall_seconds, other.wall_seconds)
        for job_id, summary in other.job_summaries.items():
            self.job_summaries[job_id] = dict(summary)
        evict_oldest(self.job_summaries, self.max_job_summaries)
        self.failed_jobs += other.failed_jobs
        for key, value in other.disruptions.items():
            self.disruptions[key] = self.disruptions.get(key, 0) + value
        self.admission_controlled = self.admission_controlled or other.admission_controlled
        self.degraded_jobs += other.degraded_jobs
        self.deferred_jobs += other.deferred_jobs
        self.rejected_jobs += other.rejected_jobs
        self.slo_violations += other.slo_violations
        for priority, counters in other.priority_classes.items():
            mine = self.class_counters(priority)
            for key, value in counters.items():
                mine[key] = mine.get(key, 0) + value
        for priority, aggregate in other.priority_latency.items():
            self.class_latency(priority).merge(aggregate)
        self.transfer_events += other.transfer_events
        self.transferred_bytes += other.transferred_bytes
        self.cross_rack_bytes += other.cross_rack_bytes
        self.transfer_s += other.transfer_s
        self.transfer_wh += other.transfer_wh
        for latency in other.latency_s:
            self.add_latency(latency)
        for shard_id, record in other.shards.items():
            self.shards[shard_id] = dict(record)
        if shard is not None:
            self.shards[shard] = other.provenance()
        return self

    @classmethod
    def merged(
        cls,
        reports: Sequence["TraceReport"],
        shard_ids: Optional[Sequence[int]] = None,
    ) -> "TraceReport":
        """One global report folding every report in ``reports``.

        The base is a deep copy of the first report, so merging a single
        report is the identity (field-for-field equal to the original —
        the 1-shard differential guarantee) apart from :attr:`shards`
        provenance when ``shard_ids`` is given.
        """
        import copy as _copy

        if not reports:
            raise ValueError("at least one report is required")
        if shard_ids is not None and len(shard_ids) != len(reports):
            raise ValueError("shard_ids must parallel reports")
        base = _copy.deepcopy(reports[0])
        if shard_ids is not None:
            base.shards[shard_ids[0]] = reports[0].provenance()
        for position, report in enumerate(reports[1:], start=1):
            base.merge(
                report, shard=shard_ids[position] if shard_ids is not None else None
            )
        return base

    def summary(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "mode": self.mode,
            "jobs": self.jobs,
            "simulated_jobs": self.simulated_jobs,
            "replayed_jobs": self.replayed_jobs,
            "replay_runs": self.replay_runs,
            "batch_makespan_s": round(self.batch_makespan_s, 2),
            "jobs_per_second": round(self.jobs_per_second, 4),
            "wall_jobs_per_second": round(self.wall_jobs_per_second, 2),
            "mean_makespan_s": round(self.makespan_s.mean, 2),
            "mean_queue_delay_s": round(self.queue_delay_s.mean, 2),
            "total_energy_wh": round(self.energy_wh.total, 2),
            "total_cost": round(self.cost.total, 4),
        }
        for key, value in self.latency_percentiles().items():
            data[f"{key}_latency_s"] = round(value, 2)
        # Only dynamics runs carry disruption accounting; a disruption-free
        # trace keeps the exact summary shape it always had.
        if self.disruptions:
            data["failed_jobs"] = self.failed_jobs
            data["disruptions"] = dict(self.disruptions)
        # Likewise only shard-merged reports carry shard accounting.
        if self.shards:
            data["shards"] = len(self.shards)
        # And only admission-controlled runs carry shed accounting.
        if self.admission_controlled:
            data["degraded_jobs"] = self.degraded_jobs
            data["deferred_jobs"] = self.deferred_jobs
            data["rejected_jobs"] = self.rejected_jobs
            data["slo_violations"] = self.slo_violations
            data["priority_classes"] = {
                priority: dict(counters)
                for priority, counters in sorted(self.priority_classes.items())
            }
        # And only runs whose fabric actually charged for data movement
        # carry transfer accounting (a zero-cost fabric never does).
        if self.transfer_events:
            data["transfer_events"] = self.transfer_events
            data["transferred_bytes"] = self.transferred_bytes
            data["cross_rack_bytes"] = self.cross_rack_bytes
            data["total_transfer_s"] = round(self.transfer_s, 2)
            data["transfer_wh"] = round(self.transfer_wh, 4)
        return data

    def canonical_dict(self) -> Dict[str, object]:
        """Every deterministic field of the report, JSON-serializable.

        The byte-for-byte comparison surface for capture/replay: two
        servings of the same offered load under the same bundle must agree
        on this dict exactly.  Wall-clock measurements (``wall_seconds``,
        including inside per-shard provenance) are excluded — they are the
        only nondeterministic fields a replay legitimately changes.
        """
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "simulated_jobs": self.simulated_jobs,
            "replayed_jobs": self.replayed_jobs,
            "replay_runs": self.replay_runs,
            "warm_trace": self.warm_trace,
            "makespan_s": self.makespan_s.summary(),
            "energy_wh": self.energy_wh.summary(),
            "cost": self.cost.summary(),
            "quality": self.quality.summary(),
            "queue_delay_s": self.queue_delay_s.summary(),
            "throughput": {
                "completed": self.throughput.completed,
                "first_start": self.batch_start,
                "last_finish": self.batch_end,
            },
            "groups": {name: dict(counters) for name, counters in sorted(self.groups.items())},
            "job_summaries": {
                job_id: dict(summary) for job_id, summary in self.job_summaries.items()
            },
            "failed_jobs": self.failed_jobs,
            "disruptions": dict(sorted(self.disruptions.items())),
            "shards": {
                str(shard_id): {
                    key: value
                    for key, value in record.items()
                    if key != "wall_seconds"
                }
                for shard_id, record in sorted(self.shards.items())
            },
            "admission_controlled": self.admission_controlled,
            "degraded_jobs": self.degraded_jobs,
            "deferred_jobs": self.deferred_jobs,
            "rejected_jobs": self.rejected_jobs,
            "slo_violations": self.slo_violations,
            "priority_classes": {
                priority: dict(counters)
                for priority, counters in sorted(self.priority_classes.items())
            },
            "priority_latency": {
                priority: aggregate.summary()
                for priority, aggregate in sorted(self.priority_latency.items())
            },
            "latency_s": list(self.latency_s),
            # Keyed in only when a fabric actually charged for movement, so
            # captures taken before the fabric subsystem existed (and every
            # fabric-free run) keep their exact historical shape.
            **(
                {
                    "transfer_events": self.transfer_events,
                    "transferred_bytes": self.transferred_bytes,
                    "cross_rack_bytes": self.cross_rack_bytes,
                    "transfer_s": self.transfer_s,
                    "transfer_wh": self.transfer_wh,
                }
                if self.transfer_events
                else {}
            ),
        }



# --------------------------------------------------------------------- #
# The admission step, completion accounting and QoE records
# --------------------------------------------------------------------- #


@dataclass
class _Entry:
    """One admitted arrival: identity, SLO, and QoE bookkeeping.

    ``group`` is the admission group the job is compiled under (the
    workload, plus :data:`DEGRADED_SUFFIX` when the ladder degraded it);
    ``ready_at`` is the absolute admission time after any defer; ``qoe`` is
    the entry's position in the run's QoE record buffer.
    """

    workload: str
    group: str
    job_id: str
    arrival_s: float
    arrival_at: float
    ready_at: float
    priority: str = DEFAULT_PRIORITY
    outcome: str = "admit"
    deadline_s: Optional[float] = None
    deadline_at: Optional[float] = None
    qoe: Optional[int] = None


class _Submission(TenantSubmission):
    """A multiplex submission whose job is cloned from its admission group's
    template on first use, which is when ``run_submissions`` admits it."""

    def __init__(self, arrival_time: float, template: Job, job_id: str) -> None:
        self.arrival_time = arrival_time
        self.overrides = None
        self._template = template
        self._job_id = job_id
        self._job: Optional[Job] = None

    @property
    def job(self) -> Job:
        if self._job is None:
            self._job = dataclass_replace(self._template, job_id=self._job_id)
        return self._job


def _qoe_record(
    entry: _Entry,
    outcome: str,
    started_s: Optional[float] = None,
    finished_s: Optional[float] = None,
    makespan_s: Optional[float] = None,
    quality: Optional[float] = None,
    slo_met: Optional[bool] = None,
) -> Dict[str, object]:
    """One per-arrival QoE record for the capture collector.

    Timings are trace-relative (the trace epoch is subtracted before this is
    called), so captures taken against a warm, long-lived service match
    those from a cold one byte for byte.  Rejected and failed arrivals keep
    ``None`` timing fields.
    """
    arrival_s = entry.arrival_s
    if slo_met is None and entry.deadline_s is not None:
        if outcome in ("reject", "failed"):
            slo_met = False
    return {
        "job_id": entry.job_id,
        "workload": entry.workload,
        "priority": entry.priority,
        "outcome": outcome,
        "arrival_s": arrival_s,
        "started_s": started_s,
        "finished_s": finished_s,
        "queue_delay_s": started_s - arrival_s if started_s is not None else None,
        "makespan_s": makespan_s,
        "latency_s": finished_s - arrival_s if finished_s is not None else None,
        "quality": quality,
        "deadline_s": entry.deadline_s,
        "slo_met": slo_met,
    }


class _TraceRun:
    """Per-run state both serving modes share: the admission step, the
    completion accounting of admitted jobs, and the QoE record buffer."""

    def __init__(
        self,
        report: "TraceReport",
        registry: WorkloadRegistry,
        job_ids: Callable[[int, str], str],
        epoch: float,
        controller: Optional[AdmissionController],
        collector: Optional[Callable[[Dict[str, object]], None]],
    ) -> None:
        self.report = report
        self.registry = registry
        self.job_ids = job_ids
        #: Trace timestamps are trace-relative; a long-lived service's engine
        #: clock has already advanced past earlier work, so arrivals are
        #: rebased onto this epoch (0 for a fresh service).
        self.epoch = epoch
        self.controller = controller
        self.collector = collector
        #: One QoE record per offered arrival, in arrival order (``None``
        #: without a collector).  Rejections are recorded at once; an
        #: admitted arrival holds its entry until it completes, and one still
        #: held at the end was lost to the cluster.  Emission waits for the
        #: end so the collector sees arrival order however completions
        #: interleave.
        self.qoe: Optional[list] = [] if collector is not None else None
        #: Whether completions need per-class or QoE accounting at all.
        self.tracks = controller is not None or collector is not None
        self._slo: Dict[str, Tuple[str, Optional[float]]] = {}
        self._degraded: Dict[str, tuple] = {}

    def admit(
        self,
        index: int,
        workload: str,
        arrival_s: float,
        backlog_until: float,
        groups: Optional[Dict[str, "GroupState"]] = None,
    ) -> Optional[_Entry]:
        """Run one arrival (trace index, workload, trace-relative arrival
        time) through the admission ladder.

        Returns the admitted entry, or ``None`` once a rejection is counted
        and recorded.  The ladder runs before any engine state is touched, so
        rejected arrivals cost nothing downstream.  ``groups`` supplies the
        observed makespan estimates (grouped serving); without it the ladder
        runs on the config's cost priors.
        """
        arrival_at = self.epoch + arrival_s
        entry = _Entry(
            workload,
            workload,
            self.job_ids(index, workload),
            arrival_s,
            arrival_at,
            arrival_at,
        )
        if not self.tracks:
            return entry
        entry.priority, entry.deadline_s = self._workload_slo(workload)
        controller = self.controller
        if controller is not None:
            full = degraded = None
            if groups is not None:
                full = groups.get(workload)
                degraded = groups.get(workload + DEGRADED_SUFFIX)
            decision = controller.decide(
                tenant=workload,
                priority=entry.priority,
                arrival_at=arrival_at,
                deadline_s=entry.deadline_s,
                estimate_s=full.estimate if full is not None else None,
                degraded_estimate_s=degraded.estimate if degraded is not None else None,
                backlog_until=backlog_until,
            )
            report = self.report
            counters = report.class_counters(entry.priority)
            if not decision.admitted:
                report.rejected_jobs += 1
                counters["rejected"] += 1
                if self.qoe is not None:
                    self.qoe.append(_qoe_record(entry, "reject"))
                return None
            entry.outcome = decision.outcome
            counters["jobs"] += 1
            if decision.outcome == "degrade":
                report.degraded_jobs += 1
                counters["degraded"] += 1
                entry.group = workload + DEGRADED_SUFFIX
            elif decision.outcome == "defer":
                report.deferred_jobs += 1
                counters["deferred"] += 1
                entry.ready_at = arrival_at + decision.wait_s
            if entry.deadline_s is None:
                entry.deadline_s = controller.config.default_deadline_s
            if entry.deadline_s is not None:
                entry.deadline_at = arrival_at + entry.deadline_s
        if self.qoe is not None:
            entry.qoe = len(self.qoe)
            self.qoe.append(entry)
        return entry

    def complete(
        self,
        entry: _Entry,
        start: float,
        finish: float,
        makespan_s: float,
        quality: float,
    ) -> None:
        """Per-class latency, deadline SLO, and QoE record of one completion."""
        deadline_at = entry.deadline_at
        if self.controller is not None:
            report = self.report
            report.class_latency(entry.priority).add(finish - entry.arrival_at)
            if deadline_at is not None and finish > deadline_at:
                report.slo_violations += 1
                report.class_counters(entry.priority)["slo_violations"] += 1
        if entry.qoe is not None:
            # ``slo_met`` is decided on absolute engine timestamps, exactly as
            # the report's ``slo_violations`` counter is, so a job admitted
            # with zero slack cannot disagree with the report over float
            # rounding in the rebased timings.
            self.qoe[entry.qoe] = _qoe_record(
                entry,
                entry.outcome,
                started_s=start - self.epoch,
                finished_s=finish - self.epoch,
                makespan_s=makespan_s,
                quality=quality,
                slo_met=finish <= deadline_at if deadline_at is not None else None,
            )

    def emit(self) -> None:
        """Hand every QoE record to the collector, in arrival order."""
        if self.collector is None:
            return
        for record in self.qoe:
            if isinstance(record, _Entry):
                # Admitted but never completed: lost to the cluster.
                record = _qoe_record(record, "failed")
            self.collector(record)

    def _workload_slo(self, workload: str) -> Tuple[str, Optional[float]]:
        """The (priority, deadline_s) a workload's spec declares."""
        slo = self._slo.get(workload)
        if slo is None:
            spec = self.registry.spec(workload)
            slo = self._slo[workload] = (spec.priority, spec.deadline_s)
        return slo

    def build_job(self, entry: _Entry) -> Job:
        """The job an admitted entry runs.

        A degraded entry compiles the degraded-quality variant of its
        workload, once per run and sharing the workload's materialized
        inputs, so degraded jobs stay deterministic per workload.
        """
        if entry.outcome != "degrade":
            return self.registry.build(entry.workload, entry.job_id)
        variant = self._degraded.get(entry.workload)
        if variant is None:
            config = self.controller.config
            overrides: Dict[str, object] = {"quality_target": config.degraded_quality}
            if config.degraded_constraint is not None:
                from repro.core.constraints import Constraint

                overrides["constraints"] = Constraint(config.degraded_constraint)
            variant = self._degraded[entry.workload] = (
                self.registry.spec(entry.workload).with_overrides(**overrides),
                self.registry.materialized_inputs(entry.workload),
            )
        spec, inputs = variant
        return compile_spec(spec, inputs=inputs, job_id=entry.job_id)


# --------------------------------------------------------------------- #
# The load generator
# --------------------------------------------------------------------- #


class ServiceLoadGenerator:
    """Batched admission of an arrival trace onto one AIWaaS endpoint."""

    def __init__(self, service, registry: Optional[WorkloadRegistry] = None) -> None:
        self.service = service
        self.registry = registry or default_registry()
        #: The most recent fully simulated (probe) JobResult — complete with
        #: plan, graph, and execution trace — for inspection and tests.
        self.last_probe_result: Optional[JobResult] = None
        #: Dynamics schedule active for the current run (set by :meth:`run`).
        self._dynamics = None
        #: Fingerprint of the policy active for the current run; the policy
        #: is fixed once :meth:`run` starts, so it is computed once rather
        #: than re-derived (sorting pinned overrides) per arrival.
        self._policy_fp = "default"

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        arrivals: Union[ArrivalColumns, Sequence[JobArrival]],
        registry: Optional[WorkloadRegistry] = None,
        mode: str = "grouped",
        max_per_job_records: Optional[int] = 256,
        job_ids: Optional[Callable[[int, str], str]] = None,
        dynamics=None,
        policy=None,
        vectorized: bool = True,
        admission=None,
        collector: Optional[Callable[[Dict[str, object]], None]] = None,
        multiplex_window: Optional[int] = None,
    ) -> TraceReport:
        """Serve ``arrivals`` and return the streaming :class:`TraceReport`.

        ``arrivals`` is an :class:`~repro.workloads.arrival.ArrivalColumns`
        or a sequence of :class:`~repro.workloads.arrival.JobArrival`, which
        is converted to columns once, here.

        ``max_per_job_records`` bounds the per-job detail retained by the
        service's :class:`~repro.service.ServiceStats` for the rest of the
        service's life (aggregates stay exact); pass ``None`` to leave the
        service unbounded.  ``job_ids`` maps ``(trace index, workload)`` to a
        job id and is called once per arrival, in admission order; without
        it jobs are named by :class:`TraceJobIds` (``trace-<index>-<workload>``).
        Multiplex serving needs a distinct id per admitted job and raises
        :class:`ValueError` naming a repeated one before the engine runs.

        ``dynamics`` runs the trace under a disruption schedule (a
        :class:`~repro.cluster.dynamics.ClusterDynamics` or
        :class:`~repro.cluster.dynamics.DynamicsConfig`, attached to the
        service); when the service already has one attached it is used
        automatically.  Disruption counters land in
        :attr:`TraceReport.disruptions`; jobs lost to an unrecoverable
        cluster are counted in :attr:`TraceReport.failed_jobs`.

        ``policy`` serves the trace under a control-plane policy bundle (a
        registered name or a :class:`~repro.policies.bundles.PolicyBundle`),
        installing it on the service first; steady-state memos are keyed by
        the bundle fingerprint, so traces served under different policies
        never share memoized results.

        ``vectorized=False`` forces the per-arrival reference path: for
        grouped serving every steady-state completion is scheduled and
        accounted one engine event at a time; for multiplex serving every
        steady-window replay completion is.  The default vectorized path
        streams replayed rows to its sink as columns and accounts each batch
        as numpy arrays; its :class:`TraceReport` aggregates and the
        service's stats are byte-identical to the reference path (asserted
        differentially in the test suite).  On an untracked run (no
        admission controller, no collector) replayed jobs reach the sink as
        whole batches: per replayed job only the FIFO start/finish recurrence
        is a Python expression, the multiplex tail builds no per-arrival
        objects, and under the default naming job ids are rendered only for
        the rows the capped per-job details keep.  Tracked runs serve
        arrival by arrival.

        ``admission`` serves the trace behind an admission controller (an
        :class:`~repro.admission.AdmissionConfig` or its dict form; the
        service's installed config is used when ``None``).  Arrivals then
        pass the rate-limit / deadline-feasibility ladder before touching
        the engine: shed jobs are counted in
        :attr:`TraceReport.degraded_jobs` / ``deferred_jobs`` /
        ``rejected_jobs``, per-class breakdowns land in
        :attr:`TraceReport.priority_classes`, and a fresh controller is
        built per run so identical traces decide identically (the
        capture/replay property).  Works in both modes; in multiplex mode
        makespan estimates come from the config's cost priors (overlapped
        execution has no serial probe stream to observe), so decisions stay
        a pure function of the arrival sequence.

        ``collector`` receives one plain-dict QoE record per arrival
        (including rejected ones) with trace-relative timings — the feed
        :mod:`repro.capture` turns into a checksummed capture file.
        Works in both modes; does not cross process boundaries.

        ``multiplex_window`` tunes the multiplex steady-window detector:
        ``None`` (default) auto-detects the arrival pattern's period, ``0``
        disables detection entirely (the exact pre-detector per-event path),
        and an explicit period >= 1 overrides auto-detection (it is still
        verified against the arrival pattern before use).  Detection is
        also disabled automatically under cluster dynamics.
        """
        if mode not in ("grouped", "multiplex"):
            raise ValueError(f"unknown mode {mode!r}; expected 'grouped' or 'multiplex'")
        arrivals = ArrivalColumns.of(arrivals)
        if not len(arrivals):
            raise ValueError("at least one arrival is required")
        registry = registry or self.registry
        if admission is None:
            admission = getattr(self.service, "admission", None)
        admission = admission_of(admission)
        if multiplex_window is not None:
            if mode != "multiplex":
                raise ValueError("multiplex_window applies to mode='multiplex'")
            if multiplex_window < 0:
                raise ValueError("multiplex_window must be None or >= 0")
        controller = AdmissionController(admission) if admission is not None else None
        if policy is not None:
            self.service.set_policy(policy)
        bundle = getattr(self.service, "policy", None)
        self._policy_fp = bundle.fingerprint() if bundle is not None else "default"
        if dynamics is not None:
            self._dynamics = self.service.attach_dynamics(dynamics)
        else:
            self._dynamics = getattr(self.service, "dynamics", None)
        feedback = getattr(self._dynamics, "set_admission_feedback", None)
        if feedback is not None:
            # Shed submissions are demand the autoscaler cannot see as
            # queued tasks; feed the run's controller counters in (and
            # clear any previous run's stale source when admission is off).
            if controller is not None:
                counters = controller.counters
                feedback(lambda: counters["reject"] + counters["defer"])
            else:
                feedback(None)
        if max_per_job_records is not None:
            self.service.stats.limit_per_job_records(max_per_job_records)
        job_ids = job_ids or TraceJobIds()
        started = _wall_time.perf_counter()
        if mode == "grouped":
            report = self._run_grouped(
                arrivals, registry, job_ids, vectorized, controller, collector
            )
        else:
            report = self._run_multiplexed(
                arrivals,
                registry,
                job_ids,
                vectorized,
                controller,
                collector,
                multiplex_window,
            )
        report.wall_seconds = _wall_time.perf_counter() - started
        if self._dynamics is not None:
            report.disruptions = self._dynamics.log.counters()
        save_warm_state = getattr(self.service, "save_warm_state", None)
        if save_warm_state is not None:
            save_warm_state()
        return report

    def _context(self) -> tuple:
        """The serving context a confirmed slot is valid under.

        ``(warm-pool signature, profile-store version, dynamics disruption
        version, policy fingerprint)``: deploying a new serving instance, a
        registered or retired agent, a preemption/failure/scaling event, or
        another policy bundle each change it and force re-convergence, so a
        trace run adopts them exactly like ``submit()``.  Nothing changes it
        while replayed rows are buffered, so callers refresh it after each
        engine run.
        """
        dynamics = self._dynamics
        return (
            self._pool_signature(),
            self.service.runtime.profile_store.version,
            dynamics.log.version if dynamics is not None else 0,
            self._policy_fp,
        )

    def _sink(
        self,
        vectorized: bool,
        report: TraceReport,
        ids: Optional[_TraceIndexIds] = None,
    ) -> _ReplaySink:
        if not vectorized:
            return _EventSink(self, report)
        return _ReplaySink(self, report, ids)

    def _index_ids(
        self, run: "_TraceRun", arrivals: ArrivalColumns
    ) -> Optional[_TraceIndexIds]:
        """The run's ids, rendered on demand, when it names its jobs with
        :class:`TraceJobIds`; ``None`` when a caller's ``job_ids`` names them
        (called once per arrival, in admission order).  Call it before the
        run touches the engine."""
        if not isinstance(run.job_ids, TraceJobIds):
            return None
        mappings = (
            self.service.runtime.engine.watermarks,
            self.service.stats.per_job,
            run.report.job_summaries,
        )
        return _TraceIndexIds(run.job_ids, arrivals, mappings)

    # ------------------------------------------------------------------ #
    # Grouped (steady-state memoized) serving
    # ------------------------------------------------------------------ #
    def _run_grouped(
        self,
        arrivals: ArrivalColumns,
        registry: WorkloadRegistry,
        job_ids: Callable[[int, str], str],
        vectorized: bool = True,
        controller: Optional[AdmissionController] = None,
        collector: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> TraceReport:
        service = self.service
        engine = service.runtime.engine
        dynamics = self._dynamics
        report = TraceReport(mode="grouped")
        report.admission_controlled = controller is not None
        run = _TraceRun(report, registry, job_ids, engine.now, controller, collector)
        groups: Dict[str, GroupState] = {}
        context = self._context()
        order = arrivals.admission_order()
        #: Workload codes in admission order.
        codes = arrivals.codes[order]
        names = arrivals.names
        tracks = run.tracks
        #: Untracked vectorized runs without dynamics serve each run of
        #: replayed arrivals as one batch of columns (:class:`_SteadyColumns`);
        #: the rest go arrival by arrival.
        columnar = vectorized and not tracks and dynamics is None

        # Persistent warm state: when a cache is attached and the serving
        # context matches a recorded one exactly, the whole trace replays
        # from the recording with zero probe simulations.
        cache = getattr(service, "warm_cache", None)
        recording: Optional[TraceRecording] = None
        recording_key: Optional[tuple] = None
        if columnar and cache is not None:
            recording_key = self._trace_context_key(
                registry, codes, names, arrivals.times[order], context, run.epoch
            )
            if recording_key is not None:
                cached = cache.load_trace_recording(recording_key, len(order))
                if cached is not None:
                    return self._replay_recording(cached, arrivals, order, codes, run)
                recording = TraceRecording(store_version=context[1], epoch=run.epoch)

        sink = self._sink(
            vectorized, report, self._index_ids(run, arrivals) if columnar else None
        )
        ids, arrivals_at, starts, finishes, rows = sink.columns
        epoch = previous_finish = run.epoch
        steady = (
            _SteadyColumns(sink, arrivals, order, codes, epoch, job_ids)
            if columnar
            else None
        )
        # The loop below reads plain Python values: whole columns as lists
        # when it visits every arrival, single items when a columnar run
        # visits only its probes (no per-arrival objects are built then).
        if steady is None:
            time_of, index_of, code_of = (
                column.tolist().__getitem__ for column in (arrivals.times, order, codes)
            )
        else:
            time_of, index_of, code_of = arrivals.times.item, order.item, codes.item
        position, n = 0, len(order)
        while position < n:
            if steady is not None:
                end = steady.end_of_run(position)
                if end > position:
                    previous_finish, recording = steady.account(
                        position, end, previous_finish, recording
                    )
                    position = end
                    if position == n:
                        break
            index = index_of(position)
            workload = names[code_of(position)]
            position += 1
            if tracks:
                entry = run.admit(index, workload, time_of(index), previous_finish, groups)
                if entry is None:
                    continue
                key, job_id = entry.group, entry.job_id
                arrival_at, ready_at = entry.arrival_at, entry.ready_at
            else:
                # Nothing sheds, defers or records an untracked arrival: its
                # workload, id and arrival time are all the loop needs.
                key = workload
                job_id = job_ids(index, key)
                arrival_at = ready_at = epoch + time_of(index)
            group = groups.get(key)
            if group is None:
                group = groups[key] = GroupState(key)
            service_start = previous_finish if previous_finish > ready_at else ready_at
            if dynamics is not None:
                # A disruption is due before this job starts: let it fire so
                # the steady-state check below sees the changed cluster (the
                # version bump forces a fresh probe).  Between disruptions
                # the replay path stays untouched.
                upcoming = dynamics.next_event_at()
                if upcoming is not None and upcoming <= service_start:
                    sink.flush()
                    engine.run(until=service_start)
                    context = self._context()
            slot = group.steady
            if slot is not None and group.steady_context == context:
                # Steady state: replay the confirmed slot instead of running
                # the pipeline.
                finish = service_start + slot.values[0]
                if tracks:
                    run.complete(
                        entry, service_start, finish, slot.values[0], slot.values[3]
                    )
                ids.append(job_id)
                arrivals_at.append(arrival_at)
                starts.append(service_start)
                finishes.append(finish)
                rows.append(group.steady_row)
                if recording is not None:
                    if group.steady_record is None:
                        recording = None
                    else:
                        recording.script.append(group.steady_record)
                previous_finish = finish
                group.replayed += 1
                continue

            # Probe: run the standard submission path on the shared engine.
            sink.flush()
            if service_start > engine.now:
                engine.run(until=service_start)
            job = run.build_job(entry) if tracks else registry.build(key, job_id)
            try:
                result = service.submit_job(job)
            except (ExecutionError, PlanningError) as error:
                if dynamics is None:
                    raise
                # The cluster shrank past recovery for this job; account the
                # failure and keep serving the rest of the trace.  (The
                # runtime already logged ExecutionError failures.)
                report.failed_jobs += 1
                if isinstance(error, PlanningError):
                    dynamics.log.failed_jobs += 1
                previous_finish = max(previous_finish, engine.now)
                context = self._context()
                group.last_observation = None
                group.steady = None
                continue
            self.last_probe_result = result
            report.account(result, arrival_at, simulated=True)
            group.simulated += 1
            group.estimate = result.makespan_s
            previous_finish = result.finished_at
            context = self._context()
            if tracks:
                run.complete(
                    entry,
                    result.started_at,
                    result.finished_at,
                    result.makespan_s,
                    result.quality,
                )
            slot = _ReplaySlot.of(result)
            if recording is not None:
                recording.records.append(
                    ReplayRecord(*slot.values, pinned_finish=result.finished_at)
                )
                recording.script.append(len(recording.records) - 1)
            observation = (result_digest(result), context)
            if group.last_observation == observation:
                group.steady = slot
                group.steady_row = sink.register([slot])
                group.steady_context = context
                group.steady_record = None
                if recording is not None:
                    recording.records.append(ReplayRecord(*slot.values))
                    group.steady_record = len(recording.records) - 1
            group.last_observation = observation
            if steady is not None:
                steady.refresh(groups, context)

        sink.close(previous_finish)
        report.groups = {name: group.counters() for name, group in groups.items()}
        run.emit()
        if (
            recording is not None
            and recording_key is not None
            and report.failed_jobs == 0
            and len(recording.script) == len(order)
        ):
            cache.save_trace_recording(recording_key, recording)
        return report

    # ------------------------------------------------------------------ #
    # Persistent trace recordings (warm-state cache)
    # ------------------------------------------------------------------ #
    def _trace_context_key(
        self,
        registry: WorkloadRegistry,
        codes: _np.ndarray,
        names: Tuple[str, ...],
        times: _np.ndarray,
        context: tuple,
        epoch: float,
    ) -> Optional[tuple]:
        """The exact-match cache key for recording/replaying this trace, or
        ``None`` when a costed fabric makes recordings unsafe.

        ``codes`` are the trace's workload codes into ``names`` and
        ``times`` its arrival times, both in admission order.  The key holds
        the code sequence renumbered by sorted workload name, so it depends
        on the workloads admitted, their order and their times, never on how
        a caller numbered its names."""
        runtime = self.service.runtime
        fabric = getattr(runtime, "fabric", None)
        if fabric is not None and not fabric.is_zero_cost():
            # A costed fabric delays and accounts per-edge transfers that
            # :class:`~repro.warmstate.ReplayRecord` does not capture, so
            # persistent recordings are disabled rather than replayed wrong.
            # (A zero-cost fabric is byte-identical to no fabric at all —
            # proven differentially — so its recordings are safely shared.)
            return None
        present = _np.flatnonzero(_np.bincount(codes, minlength=len(names))).tolist()
        ranked = sorted(present, key=names.__getitem__)
        rank = _np.zeros(len(names), dtype=_np.intp)
        rank[ranked] = _np.arange(len(ranked))
        workload_names = tuple(names[code] for code in ranked)
        spec_digests = tuple((name, registry.spec(name).digest()) for name in workload_names)
        cluster_fingerprint = tuple(
            (
                node.node_id,
                node.total_gpus,
                node.total_cpu_cores,
                str(node.gpu_generation),
            )
            for node in runtime.cluster.nodes
        )
        pool_signature, store_version, _dynamics_version, policy_fingerprint = context
        return trace_context_key(
            library_fingerprint=runtime.library.fingerprint(),
            policy_fingerprint=policy_fingerprint,
            workload_codes=rank[codes],
            workload_names=workload_names,
            arrival_times=times,
            spec_digests=spec_digests,
            cluster_fingerprint=cluster_fingerprint,
            pool_signature=pool_signature,
            store_version=store_version,
            epoch=epoch,
        )

    def _replay_recording(
        self,
        recording: TraceRecording,
        arrivals: ArrivalColumns,
        order: _np.ndarray,
        codes: _np.ndarray,
        run: _TraceRun,
    ) -> TraceReport:
        """Serve the whole trace from a persistent recording: zero probes.

        Every completion — including positions that were probe simulations
        when the recording was captured — replays its record's slot.  Probe
        records carry their exact simulated ``finished_at`` (pinned), because
        ``start + makespan`` does not round-trip bit-exactly; steady records
        recompute ``finish = start + makespan`` exactly as live replay does.
        The whole trace is one batch of columns: its keys are the admission
        order itself (or the caller's ids), its slot rows the recording's
        script.  The resulting aggregates, service stats, and watermarks are
        byte-identical to a cold serving of the same trace in the same
        context.
        """
        report = run.report
        records = recording.records
        sink = _ReplaySink(self, report, self._index_ids(run, arrivals))
        sink.register(
            [_ReplaySlot((r.makespan_s, r.energy_wh, r.cost, r.quality)) for r in records]
        )
        makespans = [record.makespan_s for record in records]
        pinned = [record.pinned_finish for record in records]
        script = recording.script
        epoch = run.epoch
        arrival_col = epoch + arrivals.times[order]
        finish = epoch
        finish_col = [
            finish := (
                (arrival if arrival > finish else finish) + makespans[step]
                if pinned[step] is None
                else pinned[step]
            )
            for arrival, step in zip(arrival_col.tolist(), script)
        ]
        before = _np.empty(len(finish_col))
        before[0] = epoch
        before[1:] = finish_col[:-1]
        start_col = _np.where(arrival_col > before, arrival_col, before)
        names = arrivals.names
        if sink.ids is not None:
            keys = order
        else:
            keys = [
                run.job_ids(index, names[code])
                for index, code in zip(order.tolist(), codes.tolist())
            ]
        sink.add(keys, arrival_col, start_col, finish_col, script)
        sink.close(finish)
        report.warm_trace = True
        counts = _np.bincount(codes, minlength=len(names)).tolist()
        report.groups = {
            names[code]: {"simulated": 0, "replayed": counts[code]}
            for code in _first_seen(codes, len(names))
        }
        return report

    def _pool_signature(self) -> Tuple[Tuple[str, str], ...]:
        pool = getattr(self.service, "_pool", None)
        return pool.signature() if pool is not None else ()

    # ------------------------------------------------------------------ #
    # Multiplexed (full shared-engine interleaving) serving
    # ------------------------------------------------------------------ #
    def _run_multiplexed(
        self,
        arrivals: ArrivalColumns,
        registry: WorkloadRegistry,
        job_ids: Callable[[int, str], str],
        vectorized: bool = True,
        controller: Optional[AdmissionController] = None,
        collector: Optional[Callable[[Dict[str, object]], None]] = None,
        window: Optional[int] = None,
    ) -> TraceReport:
        from repro.core.multitenant import SubmissionSchedule, run_submissions

        service = self.service
        report = TraceReport(mode="multiplex")
        report.admission_controlled = controller is not None
        run = _TraceRun(
            report, registry, job_ids, service.runtime.engine.now, controller, collector
        )
        order = arrivals.admission_order()
        names = arrivals.names
        indices = order.tolist()
        workloads = [names[code] for code in arrivals.codes[order].tolist()]
        entries: Optional[List[_Entry]] = None
        index_ids: Optional[_TraceIndexIds] = None
        if vectorized and not run.tracks:
            # Nothing sheds, defers or records an untracked arrival, so its
            # admission entry is its trace index, workload and ready time,
            # kept as columns in admission order (ready times are already
            # sorted: the epoch shift is monotone).
            groups = workloads
            ready_col = arrival_col = run.epoch + arrivals.times[order]
            ready = arrivals_at = ready_col.tolist()
            index_ids = self._index_ids(run, arrivals)
            if index_ids is not None:
                keys = order
                naming = index_ids.naming

                def job_id(position: int) -> str:
                    return naming(indices[position], groups[position])

            else:
                keys = [job_ids(index, group) for index, group in zip(indices, groups)]
                job_id = keys.__getitem__
        else:
            entries = []
            #: Serial backlog watermark fed to the deadline-feasibility rung.
            #: Multiplexed jobs overlap, so there is no FIFO probe stream to
            #: observe makespans from: the ladder runs on the config's cost
            #: priors, keeping every decision a pure function of the arrival
            #: sequence (the capture/replay property).
            backlog = run.epoch
            times = arrivals.times.tolist()
            for index, workload in zip(indices, workloads):
                entry = run.admit(index, workload, times[index], backlog)
                if entry is None:
                    continue
                if controller is not None:
                    config = controller.config
                    prior = (
                        config.degraded_prior_s
                        if entry.outcome == "degrade"
                        else config.estimate_prior_s
                    )
                    backlog = max(entry.ready_at, backlog) + (prior or 0.0)
                entries.append(entry)

            if not entries:
                # Every arrival was shed; nothing touches the engine.
                run.emit()
                return report

            # Deferred admissions shift ready times, so re-sort (stably):
            # run_submissions serves in (arrival_time, position) order, which
            # after this sort is the identity — entry i is served as
            # submission i, so the steady-window replay plan's ``resume_at``
            # indexes straight into these columns.
            entries.sort(key=attrgetter("ready_at"))
            groups = [entry.group for entry in entries]
            ready = [entry.ready_at for entry in entries]
            ready_col = _np.array(ready)
            arrivals_at = [entry.arrival_at for entry in entries]
            arrival_col = _np.array(arrivals_at)
            keys = [entry.job_id for entry in entries]
            job_id = keys.__getitem__
        if index_ids is None:
            _require_distinct(keys)

        # Template compilation: one Job per admission group, cloned with a
        # fresh job_id only when run_submissions admits the submission (the
        # replayed tail is never even built).  Clones share the template's
        # materialized inputs and spec digest, so the digest-keyed plan
        # cache plans each group once no matter how many arrivals it has.
        templates: Dict[str, Job] = {}
        for group in dict.fromkeys(groups):
            first = groups.index(group)
            templates[group] = (
                run.build_job(entries[first])
                if entries is not None
                else registry.build(group, job_id(first))
            )
        group_counts = {group: {"simulated": 0, "replayed": 0} for group in templates}
        #: Position of every built submission, by job id.
        by_job_id: Dict[str, int] = {}

        def submission(position: int) -> _Submission:
            name = job_id(position)
            by_job_id[name] = position
            return _Submission(ready[position], templates[groups[position]], name)

        period: Optional[int] = None
        if window != 0 and self._dynamics is None:
            if window is None:
                period = _detect_multiplex_period(ready, groups)
            elif _pattern_holds(ready, groups, window):
                # An explicit window that the arrival pattern does not
                # actually repeat at (or a too-short trace) falls back to
                # full per-event serving rather than mis-replaying.
                period = window

        stats = service.stats

        def on_result(result: JobResult) -> None:
            position = by_job_id.get(result.job_id)
            if position is None:
                raise ValueError(
                    f"multiplex completion for unknown job id {result.job_id!r}; "
                    "job_ids must return the id each submission was admitted under"
                )
            stats.record(result)
            report.account(result, arrivals_at[position], simulated=True)
            group_counts[groups[position]]["simulated"] += 1
            if run.tracks:
                run.complete(
                    entries[position],
                    result.started_at,
                    result.finished_at,
                    result.makespan_s,
                    result.quality,
                )

        tenant_report = run_submissions(
            service.runtime,
            SubmissionSchedule(len(groups), submission),
            pool=service._pool,
            collect_traces=False,
            on_result=on_result,
            window=period,
        )
        report.failed_jobs = tenant_report.failed_jobs
        plan = tenant_report.replay_plan
        if plan is not None:
            resume = plan.resume_at
            self._replay_windows(
                run,
                self._sink(vectorized, report, index_ids),
                plan,
                ready_col[resume:],
                arrival_col[resume:],
                keys[resume:],
                groups[resume : resume + plan.period],
                group_counts,
                entries[resume:] if run.tracks else None,
            )
        report.groups = group_counts
        run.emit()
        return report

    @staticmethod
    def _replay_windows(
        run: _TraceRun,
        sink: _ReplaySink,
        plan,
        ready,
        arrivals_at,
        keys,
        groups: List[str],
        group_counts: Dict[str, Dict[str, int]],
        entries: Optional[List[_Entry]] = None,
    ) -> None:
        """Replay the unsimulated tail from the confirmed window pattern.

        ``ready``, ``arrivals_at`` and ``keys`` are the tail's columns in
        admission order, ``groups`` the admission groups of its first
        window, and ``entries`` the tail's admission entries on a tracked
        run.  Remaining row ``i`` replays pattern slot ``i % period``: its
        start is its own window's first ready time plus the slot's offset
        from the confirmed window's base (clamped to the row's own ready
        time, as the engine would), and its finish adds the slot's exact
        makespan.  Rows reach the sink stably sorted by finish, which is the
        (finish, position) order of the shared engine's (time, sequence)
        queue.
        """
        period = plan.period
        pattern = plan.pattern
        base_row = sink.register([_ReplaySlot.of(result) for result in pattern])
        offsets = _np.array([result.started_at - plan.base for result in pattern])
        makespans = _np.array([result.makespan_s for result in pattern])
        positions = _np.arange(len(ready))
        slot_of = positions % period
        starts = ready[positions - slot_of] + offsets[slot_of]
        starts = _np.where(starts < ready, ready, starts)
        finishes = starts + makespans[slot_of]
        order = _np.argsort(finishes, kind="stable")
        if isinstance(keys, _np.ndarray):
            keys = keys[order]
        else:
            keys = [keys[position] for position in order.tolist()]
        start_col, finish_col = starts[order], finishes[order]
        rows = slot_of[order] + base_row
        sink.add(keys, arrivals_at[order], start_col, finish_col, rows)
        replayed = _np.bincount(slot_of, minlength=period).tolist()
        for position, group in enumerate(groups):
            group_counts[group]["replayed"] += replayed[position]
        if entries is not None:
            for position, start, finish, row in zip(
                order.tolist(), start_col.tolist(), finish_col.tolist(), rows.tolist()
            ):
                values = sink.slots[row].values
                run.complete(entries[position], start, finish, values[0], values[3])
        sink.close(float(finish_col[-1]))

    # ------------------------------------------------------------------ #
    # Vectorized replay accounting
    # ------------------------------------------------------------------ #
    def _account_run(
        self, report: TraceReport, slots: List[_ReplaySlot], columns: tuple
    ) -> None:
        """Account one batch of a sink's columns (job ids; arrival, start and
        finish floats; indices into ``slots``) as numpy arrays.

        The id column is an :class:`_IdColumn`: under the default naming it
        renders ids only for the rows a capped detail keeps.  The float
        and index columns are lists or 1-d numpy arrays.

        Byte-identical to one engine event per row through
        :class:`_EventSink`: every streaming aggregate receives the same
        values in the same order (totals accumulate in sequential IEEE-754
        order, see :func:`~repro.telemetry.metrics.sequential_sum`), the
        bounded detail dicts end in the same state with the same eviction
        counters, and every value reaching a report, the stats or the engine
        is a Python float.
        """
        ids, arrival_col, start_col, finish_col, row_col = columns
        n = len(ids)
        stats = self.service.stats
        report.jobs += n
        report.replayed_jobs += n
        report.replay_runs += 1
        arrivals = _np.asarray(arrival_col, dtype=float)
        starts = _np.asarray(start_col, dtype=float)
        finishes = _np.asarray(finish_col, dtype=float)
        rows = _np.asarray(row_col, dtype=_np.intp)
        # Gathered per row from the slot table, so a steady run adds its one
        # slot's values once per job, in job order, like the reference.
        values = _np.array([slot.values for slot in slots])[rows]
        makespans, energies, costs, qualities = values.T
        for owner in (report, stats):
            owner.makespan_s.add_sequence(makespans)
            owner.energy_wh.add_sequence(energies)
            owner.cost.add_sequence(costs)
            owner.quality.add_sequence(qualities)
        moving = [row for row, slot in enumerate(slots) if slot.transfer is not None]
        if moving:
            # The reference's per-result += in job order, over the rows whose
            # slot moved costed bytes (no slot does, on fabric-free runs).
            table = [slot.transfer or (0,) * 5 for slot in slots]
            moved = _np.array(table, dtype=object)[rows[_np.isin(rows, moving)]]
            for owner in (report, stats):
                owner.transfer_s = sequential_sum(owner.transfer_s, moved[:, 0])
                owner.transferred_bytes += sum(moved[:, 1].tolist())
                owner.cross_rack_bytes += sum(moved[:, 2].tolist())
                owner.transfer_wh = sequential_sum(owner.transfer_wh, moved[:, 3])
                owner.transfer_events += sum(moved[:, 4].tolist())
        # Starts never precede arrivals on this path, so the delay is the
        # plain difference (the reference path's max(0.0, ...) is a no-op).
        report.queue_delay_s.add_sequence(starts - arrivals)
        cap = report.max_latency_samples
        room = n if cap is None else min(n, cap - len(report.latency_s))
        if room > 0:
            report.latency_s.extend(_shared_floats(finishes[:room] - arrivals[:room]))
        throughput = report.throughput
        throughput.completed += n
        throughput.first_start = min(throughput.first_start, float(starts.min()))
        throughput.last_finish = max(throughput.last_finish, float(finishes.max()))
        stats.jobs_completed += n
        # Capped details are built only for the rows their caps keep.
        engine = self.service.runtime.engine
        _bulk_insert(
            engine.watermarks,
            engine.WATERMARK_CAP,
            ids,
            lambda start: finishes[start:].tolist(),
            latest=True,
        )

        def summaries(start: int) -> List[Dict[str, float]]:
            # The JobResult.compact_summary dict of each kept row's slot.
            kept = rows[start:].tolist()
            return [dict(zip(_SUMMARY_KEYS, slots[row].values)) for row in kept]

        stats.per_job_evicted += _bulk_insert(
            stats.per_job, stats.max_per_job_records, ids, summaries
        )
        _bulk_insert(report.job_summaries, report.max_job_summaries, ids, summaries)


def _first_seen(codes: _np.ndarray, count: int) -> List[int]:
    """The codes below ``count`` that occur in ``codes``, in order of first
    occurrence."""
    n = len(codes)
    first = _np.full(count, n)
    _np.minimum.at(first, codes, _np.arange(n))
    present = _np.flatnonzero(first < n)
    return present[_np.argsort(first[present], kind="stable")].tolist()


def _shared_floats(values) -> List[float]:
    """``values.tolist()`` with one float object per distinct value.

    Replayed rows repeat a few slot makespans, so their latencies repeat
    (about one value in four is distinct on a steady grouped trace), and a
    report holding up to :attr:`TraceReport.max_latency_samples` of them
    keeps each value once.  Values are matched bit for bit.
    """
    _, first, inverse = _np.unique(
        values.view(_np.int64), return_index=True, return_inverse=True
    )
    return _np.array(values[first].tolist(), dtype=object)[inverse].tolist()


def _require_distinct(ids: Sequence[str]) -> None:
    """Multiplex serving matches each completion to its arrival by job id,
    so an id may name one admitted job only."""
    if len(set(ids)) != len(ids):
        seen = set()
        for job_id in ids:
            if job_id in seen:
                raise ValueError(
                    f"job id {job_id!r} names more than one admitted job; "
                    "multiplex serving needs a distinct id per job"
                )
            seen.add(job_id)


#: Rows of a candidate period the steady-window detector compares one at a
#: time before it compares the rest as arrays: an arrival pattern that does
#: not repeat at a period almost always shows it within these.
_PATTERN_PREFIX = 16


def _pattern_holds(
    ready: List[float], groups: List[str], period: int, arrays: Optional[tuple] = None
) -> bool:
    """Whether the admitted arrivals repeat with ``period``: the same
    admission-group sequence and a constant positive window-to-window
    ready-time shift.

    ``ready`` and ``groups`` are the arrivals' ready times and admission
    groups in admission order; ``arrays`` is their :func:`_pattern_arrays`
    form, when the caller already has it.  Requires at least ``2 * period +
    1`` arrivals — the steady-window detector needs two complete windows to
    compare plus at least one arrival to replay.
    """
    n = len(ready)
    if period < 1 or n < 2 * period + 1:
        return False
    span = round_sig(ready[period] - ready[0])
    if span <= 0.0:
        return False
    head = min(n, period + _PATTERN_PREFIX)
    checked = None
    for i in range(period, head):
        if groups[i] != groups[i - period]:
            return False
        shift = ready[i] - ready[i - period]
        if shift != checked:
            # Rounding is the slow part; a repeated shift rounds alike.
            if round_sig(shift) != span:
                return False
            checked = shift
    if head == n:
        return True
    times, codes = arrays or _pattern_arrays(ready, groups)
    if not _np.array_equal(codes[head:], codes[head - period : n - period]):
        return False
    shifts = times[head:] - times[head - period : n - period]
    return all(round_sig(shift) == span for shift in _np.unique(shifts).tolist())


def _pattern_arrays(ready: List[float], groups: List[str]) -> tuple:
    """``ready`` as floats and ``groups`` as integer codes, as numpy arrays."""
    codes = {group: code for code, group in enumerate(dict.fromkeys(groups))}
    return (
        _np.array(ready),
        _np.fromiter(map(codes.__getitem__, groups), dtype=_np.intp, count=len(groups)),
    )


def _detect_multiplex_period(ready: List[float], groups: List[str]) -> Optional[int]:
    """Smallest period the admitted arrival pattern repeats at, if any.

    Aperiodic traces reject each candidate within a few comparisons (the
    first group or spacing mismatch short-circuits), so detection stays
    effectively linear in practice.
    """
    first = groups[0]
    arrays = None
    for period in range(1, (len(groups) - 1) // 2 + 1):
        if groups[period] != first:
            continue
        if arrays is None and len(groups) > period + _PATTERN_PREFIX:
            arrays = _pattern_arrays(ready, groups)
        if _pattern_holds(ready, groups, period, arrays):
            return period
    return None


def _bulk_insert(mapping: Dict, cap: Optional[int], ids, payloads, latest=False) -> int:
    """``mapping[id] = payload`` pairwise, evicting the insertion-oldest
    beyond ``cap``: byte-identical (contents, order, eviction count) to one
    insert at a time.  ``ids`` is a batch's id column and ``payloads(start)``
    builds the payloads of its rows from ``start`` on; with ``latest`` a
    present key keeps the later value, as :meth:`SimulationEngine.mark`
    does.  Fresh ids (:meth:`_IdColumn.fresh`: distinct, none present) take
    the arithmetic path and render only the ids and payloads the cap keeps;
    a re-inserted key keeps its dict position, which arithmetic cannot
    model, so any other batch inserts one key at a time.
    """
    if ids.fresh(mapping):
        n = len(ids)
        overflow = 0 if cap is None else len(mapping) + n - cap
        keep_from = 0
        if overflow >= len(mapping) and overflow > 0:
            # Everything pre-existing is evicted, plus the head of the batch.
            mapping.clear()
            keep_from = max(0, n - cap)
        elif overflow > 0:
            evict_oldest(mapping, len(mapping) - overflow)
        mapping.update(zip(ids.tail(keep_from), payloads(keep_from)))
        return max(0, overflow)
    evicted = 0
    for key, payload in zip(ids.tail(0), payloads(0)):
        existing = mapping.get(key) if latest else None
        if existing is None or payload > existing:
            mapping[key] = payload
        evicted += evict_oldest(mapping, cap)
    return evicted
