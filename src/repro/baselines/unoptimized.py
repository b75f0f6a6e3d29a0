"""The unoptimized reference path for the orchestration hot-path overhaul.

The indexed profile store, memoized profiling, plan cache, cached DAG
structure, decomposition templates, tuple-heap event loop, and incremental
executor dispatch are pure performance work: they must not change a single scheduling decision, plan
assignment, or event ordering.  This module reproduces the original
(pre-optimization) behaviour of every layer so benchmarks and tests can run
the same job down both paths and assert

* byte-identical execution plans and traces, and
* the speedup the optimized path claims.

Nothing here is used by the production path; it exists as an executable
regression baseline (the same role CGReplay-style replay harnesses play for
QoS claims: the measurement substrate itself must be checkable).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.agents.base import AgentInterface
from repro.agents.library import AgentLibrary, default_library
from repro.core.dag import TaskGraph
from repro.core.decomposer import JobDecomposer
from repro.core.execution import WorkflowExecutor
from repro.core.job import Job
from repro.core.runtime import MurakkabRuntime
from repro.core.task import Task
from repro.llm.orchestrator_llm import ReActTrace
from repro.profiling.profiler import Profiler


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


class RescanWorkflowExecutor(WorkflowExecutor):
    """A :class:`WorkflowExecutor` that rescans the graph instead of reading
    its incremental counters: every dispatch recomputes the ready set, and
    every completion check and announcement walks the whole graph, exactly
    as the seed executor did."""

    def _take_ready(self) -> List[Task]:
        return self._graph.ready_tasks()

    def _is_complete(self) -> bool:
        return self._graph.is_complete()

    def _progress(self) -> Tuple[Dict[AgentInterface, int], int]:
        return self._graph.pending_counts_by_interface(), len(self._graph.completed())

    def _announce_completion(self, task: Task, now: float) -> None:
        self._announce()


def _stepwise_run(engine, until: Optional[float] = None, max_events: Optional[int] = None):
    """The original engine loop: peek/step method calls per event."""
    fired = 0
    while True:
        if max_events is not None and fired >= max_events:
            break
        next_time = engine._queue.peek_time()
        if next_time is None:
            break
        if until is not None and next_time > until:
            engine._clock.advance_to(until)
            break
        if not engine.step():
            break
        fired += 1
    if until is not None and engine.now < until and engine._queue.peek_time() is None:
        engine._clock.advance_to(until)
    return engine.now


def unoptimized_runtime(library: Optional[AgentLibrary] = None) -> MurakkabRuntime:
    """A :class:`MurakkabRuntime` running the pre-optimization hot path.

    * profiles the library from scratch (no memoized default store),
    * plans every submission without the plan cache,
    * decomposes every job from scratch into an :class:`UncachedTaskGraph`,
    * drives the engine through the original step-wise event loop, and
    * executes every job, single submission or multi-job serving, on a
      :class:`RescanWorkflowExecutor`.
    """
    library = library or default_library()
    runtime = MurakkabRuntime(
        library=library,
        profile_store=Profiler().profile_library(library),
    )
    runtime.orchestrator.planner.enable_plan_cache = False
    runtime.orchestrator.decomposer = UncachedJobDecomposer(
        runtime.orchestrator.decomposer.orchestrator_llm
    )
    runtime.executor_class = RescanWorkflowExecutor
    engine = runtime.engine
    runtime.engine.run = lambda until=None, max_events=None: _stepwise_run(
        engine, until=until, max_events=max_events
    )
    return runtime
