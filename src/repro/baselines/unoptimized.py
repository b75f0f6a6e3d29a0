"""The unoptimized reference path for the orchestration hot-path overhaul.

The indexed profile store, memoized profiling, plan cache, cached DAG
structure, decomposition templates, tuple-heap event loop, incremental
executor dispatch, deferred and memoized job dataflow, replayed single
submissions, and column accounting of replayed trace jobs are pure
performance work: they must not change a single scheduling decision, plan
assignment, event ordering, agent output, or accounted value.  This module
reproduces the
original (pre-optimization) behaviour of every layer so benchmarks and tests
can run the same job down both paths and assert

* byte-identical execution plans and traces, and
* the speedup the optimized path claims.

Nothing here is used by the production path; it exists as an executable
regression baseline (the same role CGReplay-style replay harnesses play for
QoS claims: the measurement substrate itself must be checkable).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.agents.base import AgentInterface
from repro.agents.library import AgentLibrary, default_library
from repro.core.dag import TaskGraph
from repro.core.dataflow import JobDataflow
from repro.core.decomposer import JobDecomposer
from repro.core.execution import WorkflowExecutor
from repro.core.job import Job, JobResult
from repro.core.runtime import MurakkabRuntime
from repro.core.task import Task
from repro.llm.orchestrator_llm import ReActTrace
from repro.loadgen import ServiceLoadGenerator, _ReplaySink, _ReplaySlot
from repro.profiling.profiler import Profiler
from repro.sim.energy import EnergyBreakdown
from repro.sim.engine import SimulationEngine


class UncachedTaskGraph(TaskGraph):
    """A :class:`TaskGraph` with the original networkx structure queries.

    Keeps its own ``networkx.DiGraph`` mirror and answers every structure
    query from it, recomputing on every call: ``topological_order``/
    ``stage_order`` re-run the full lexicographical topological sort,
    ``validate`` and ``add_dependency`` the whole-graph acyclicity check,
    and ``predecessors``/``successors``/``edges`` iterate networkx's
    adjacency — exactly as the seed code did.
    """

    def __init__(self, workflow_id: str = "workflow") -> None:
        super().__init__(workflow_id)
        self._nx = nx.DiGraph()

    def add_task(self, task: Task) -> Task:
        super().add_task(task)
        self._nx.add_node(task.task_id)
        return task

    def add_dependency(self, upstream_id: str, downstream_id: str) -> None:
        for task_id in (upstream_id, downstream_id):
            if task_id not in self._tasks:
                raise KeyError(f"unknown task: {task_id}")
        if upstream_id == downstream_id:
            raise ValueError(f"task {upstream_id} cannot depend on itself")
        self._nx.add_edge(upstream_id, downstream_id)
        if not nx.is_directed_acyclic_graph(self._nx):
            self._nx.remove_edge(upstream_id, downstream_id)
            raise ValueError(
                f"adding edge {upstream_id} -> {downstream_id} would create a cycle"
            )
        self._succ[upstream_id][downstream_id] = self._tasks[downstream_id]
        self._pred[downstream_id][upstream_id] = self._tasks[upstream_id]

    def predecessors(self, task_id: str) -> List[Task]:
        return [self._tasks[t] for t in self._nx.predecessors(task_id)]

    def successors(self, task_id: str) -> List[Task]:
        return [self._tasks[t] for t in self._nx.successors(task_id)]

    def edges(self) -> List[Tuple[str, str]]:
        return list(self._nx.edges())

    def validate(self) -> None:
        if not self._tasks:
            raise ValueError("task graph is empty")
        if not nx.is_directed_acyclic_graph(self._nx):
            raise ValueError("task graph contains a cycle")

    def topological_order(self) -> List[Task]:
        order = nx.lexicographical_topological_sort(self._nx)
        return [self._tasks[task_id] for task_id in order]

    def stage_order(self) -> List[str]:
        seen: List[str] = []
        for task in self.topological_order():
            if task.stage not in seen:
                seen.append(task.stage)
        return seen


class UncachedJobDecomposer(JobDecomposer):
    """A :class:`JobDecomposer` without the template memo: every job is
    decomposed from scratch into an :class:`UncachedTaskGraph`."""

    graph_factory = UncachedTaskGraph

    def decompose(self, job: Job) -> Tuple[TaskGraph, ReActTrace]:
        return self.decompose_fresh(job)


class EagerDataflow(JobDataflow):
    """A :class:`JobDataflow` that composes and executes each task's agent
    the moment the task completes, inside the event loop, and never reads
    or writes the dataflow memo, exactly as the seed executor did."""

    record = JobDataflow.run_task

    def finish(self):
        return self.results


class RescanWorkflowExecutor(WorkflowExecutor):
    """A :class:`WorkflowExecutor` that rescans the graph instead of reading
    its incremental counters: every dispatch recomputes the ready set, and
    every completion check and announcement walks the whole graph, exactly
    as the seed executor did.  Its jobs' dataflow is an
    :class:`EagerDataflow`, and its schedules are always simulated, never
    replayed."""

    dataflow_class = EagerDataflow
    replayable = False

    def _take_ready(self) -> List[Task]:
        return self._graph.ready_tasks()

    def _is_complete(self) -> bool:
        return self._graph.is_complete()

    def _progress(self) -> Tuple[Dict[AgentInterface, int], int]:
        return self._graph.pending_counts_by_interface(), len(self._graph.completed())

    def _announce_completion(self, task: Task, now: float) -> None:
        self._announce()


class StepwiseEngine(SimulationEngine):
    """A :class:`SimulationEngine` driven by the original event loop: one
    ``peek``/``step`` method call pair per event."""

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._clock.advance_to(until)
                break
            if not self.step():
                break
            fired += 1
        if until is not None and self.now < until and self._queue.peek_time() is None:
            self._clock.advance_to(until)
        return self.now


def unoptimized_runtime(library: Optional[AgentLibrary] = None) -> MurakkabRuntime:
    """A :class:`MurakkabRuntime` running the pre-optimization hot path.

    * profiles the library from scratch (no memoized default store),
    * plans every submission without the plan cache,
    * decomposes every job from scratch into an :class:`UncachedTaskGraph`,
    * drives a :class:`StepwiseEngine`, and
    * executes every job, single submission or multi-job serving, on a
      :class:`RescanWorkflowExecutor`, which composes and executes each
      task's agent as the task completes and never replays a schedule.
    """
    library = library or default_library()
    runtime = MurakkabRuntime(
        library=library,
        profile_store=Profiler().profile_library(library),
        engine=StepwiseEngine(),
    )
    runtime.orchestrator.planner.enable_plan_cache = False
    runtime.orchestrator.decomposer = UncachedJobDecomposer(
        runtime.orchestrator.decomposer.orchestrator_llm
    )
    runtime.executor_class = RescanWorkflowExecutor
    return runtime


# --------------------------------------------------------------------- #
# Trace serving: one engine event per replayed job
# --------------------------------------------------------------------- #


def stamp(slot: _ReplaySlot, job_id: str, started_at: float, finished_at: float) -> JobResult:
    """A replayed completion of ``slot``'s confirmed result."""
    source = slot.result
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


class EventSink(_ReplaySink):
    """A replay sink that schedules one engine completion event per row and
    accounts each result as it fires, through ``ServiceStats.record`` and
    ``TraceReport.account``."""

    def _account(self, columns) -> None:
        keys, *rest = (
            column.tolist() if isinstance(column, np.ndarray) else list(column)
            for column in columns
        )
        job_ids = keys if self.ids is None else self.ids.render(keys)
        slots, complete = self.slots, self._complete_replay
        self.generator.service.runtime.engine.schedule_at_batch(
            (finish, complete, (stamp(slots[row], job_id, start, finish), arrived))
            for job_id, arrived, start, finish, row in zip(job_ids, *rest)
        )

    def _complete_replay(self, result: JobResult, arrival_at: float) -> None:
        """Fires on the shared engine at the job's completion watermark."""
        service = self.generator.service
        service.runtime.engine.mark(result.job_id)
        service.stats.record(result)
        self.report.account(result, arrival_at, simulated=False)


class ReferenceLoadGenerator(ServiceLoadGenerator):
    """A :class:`ServiceLoadGenerator` that serves every grouped arrival in
    turn and accounts every replayed job as one engine event
    (:class:`EventSink`): the reference the column accounting is checked
    against byte for byte.  It never reads or writes warm recordings.

    ``ReferenceLoadGenerator(service).run(arrivals, **options)`` takes the
    options of :meth:`ServiceLoadGenerator.run`.
    """

    sink_class = EventSink

    def _columnar(self, run) -> bool:
        return False
