"""The workflow DAG intermediate representation.

"The LLM ... identifies the relationship between tasks and generates the
corresponding internal representation as a directed acyclic graph (DAG)
where the nodes represent agents, and edges represent dataflow between
them." (§3.1)  The DAG is also what the orchestrator exposes to the cluster
manager for workflow-aware scheduling (§3.2).

The graph is plain insertion-ordered dict adjacency: ``_succ[u]`` and
``_pred[v]`` map neighbour ids to their tasks in edge-insertion order, so
``successors``/``predecessors``/``edges`` iterate exactly as a networkx
``DiGraph`` built from the same calls would (dataflow composition merges
predecessor outputs in that order).  The topological order is a heap-based
Kahn sort, equal to ``networkx.lexicographical_topological_sort``, computed
once and cached with the stage order until the topology changes.

:meth:`TaskGraph.stamp` is how the decomposer reuses one compiled job for
the next identical one: it copies the adjacency under renamed task ids and
carries both caches over, so a stamped graph is never re-validated or
re-sorted.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.agents.base import AgentInterface
from repro.core.task import Task, TaskState


class TaskGraph:
    """A DAG of :class:`~repro.core.task.Task` nodes with dataflow edges."""

    def __init__(self, workflow_id: str = "workflow") -> None:
        self.workflow_id = workflow_id
        self._tasks: Dict[str, Task] = {}
        #: task id -> {neighbour id: neighbour task}, in edge-insertion order.
        self._succ: Dict[str, Dict[str, Task]] = {}
        self._pred: Dict[str, Dict[str, Task]] = {}
        # Structure-derived caches, invalidated on any topology mutation.
        # Execution recomputes the topological order on every progress
        # announcement; for a static graph that is pure waste.
        self._topo_ids: Optional[List[str]] = None
        self._stage_order: Optional[List[str]] = None
        #: The graph this one was stamped from (see :meth:`stamp`), or
        #: ``None``; cleared by any topology change.
        self.stamped_from: Optional["TaskGraph"] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task) -> Task:
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id: {task.task_id}")
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = {}
        self._pred[task.task_id] = {}
        self._invalidate_structure_caches()
        return task

    def add_dependency(self, upstream_id: str, downstream_id: str) -> None:
        """Declare that ``downstream`` consumes ``upstream``'s output."""
        for task_id in (upstream_id, downstream_id):
            if task_id not in self._tasks:
                raise KeyError(f"unknown task: {task_id}")
        if upstream_id == downstream_id:
            raise ValueError(f"task {upstream_id} cannot depend on itself")
        # The new edge closes a cycle iff downstream already reaches
        # upstream.  A targeted reachability walk is far cheaper than the
        # full-graph acyclicity check per edge, and edges are typically
        # added in topological order, so the walk usually stops immediately.
        if self._reaches(downstream_id, upstream_id):
            raise ValueError(
                f"adding edge {upstream_id} -> {downstream_id} would create a cycle"
            )
        self._succ[upstream_id][downstream_id] = self._tasks[downstream_id]
        self._pred[downstream_id][upstream_id] = self._tasks[upstream_id]
        self._invalidate_structure_caches()

    def _reaches(self, source_id: str, target_id: str) -> bool:
        """Whether ``target_id`` is reachable from ``source_id``."""
        adjacency = self._succ
        stack = [source_id]
        visited = set()
        while stack:
            node = stack.pop()
            if node == target_id:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(adjacency[node])
        return False

    def _invalidate_structure_caches(self) -> None:
        self._topo_ids = None
        self._stage_order = None
        self.stamped_from = None

    def stamp(self, old_id: str, new_id: str, tasks: Sequence[Task]) -> "TaskGraph":
        """This graph's structure over ``tasks``, one per task in insertion order.

        Every task id starts with ``old_id``; the stamp renames that prefix
        to ``new_id`` (``tasks`` must carry the renamed ids, in this graph's
        insertion order) and becomes workflow ``new_id``.  Edges, their
        iteration order, and the cached topological and stage orders carry
        over, so the stamp needs no validation or sort of its own.  The
        result is always a plain :class:`TaskGraph`, and its
        :attr:`stamped_from` is this graph.
        """
        if len(tasks) != len(self._tasks):
            raise ValueError(f"stamp needs {len(self._tasks)} tasks, got {len(tasks)}")
        cut = len(old_id)
        by_old: Dict[str, Task] = {}
        for old_task_id, task in zip(self._tasks, tasks):
            if not old_task_id.startswith(old_id) or task.task_id != new_id + old_task_id[cut:]:
                raise ValueError(
                    f"task {task.task_id!r} does not stamp {old_task_id!r} "
                    f"from {old_id!r} to {new_id!r}"
                )
            by_old[old_task_id] = task

        def renamed(adjacency: Dict[str, Dict[str, Task]]) -> Dict[str, Dict[str, Task]]:
            return {
                by_old[task_id].task_id: {
                    by_old[neighbour].task_id: by_old[neighbour] for neighbour in neighbours
                }
                for task_id, neighbours in adjacency.items()
            }

        graph = TaskGraph(new_id)
        graph._tasks = {task.task_id: task for task in tasks}
        graph._succ = renamed(self._succ)
        graph._pred = renamed(self._pred)
        graph._topo_ids = [by_old[task_id].task_id for task_id in self._topological_ids()]
        graph._stage_order = self.stage_order()
        graph.stamped_from = self
        return graph

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self):
        return iter(self._tasks.values())

    @property
    def tasks(self) -> Dict[str, Task]:
        return dict(self._tasks)

    def task(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise KeyError(f"unknown task: {task_id!r}") from None

    def predecessors(self, task_id: str) -> List[Task]:
        return list(self._pred[task_id].values())

    def successors(self, task_id: str) -> List[Task]:
        return list(self._succ[task_id].values())

    def edges(self) -> List[Tuple[str, str]]:
        return [
            (task_id, successor)
            for task_id, successors in self._succ.items()
            for successor in successors
        ]

    def roots(self) -> List[Task]:
        return [self._tasks[t] for t, preds in self._pred.items() if not preds]

    def leaves(self) -> List[Task]:
        return [self._tasks[t] for t, succs in self._succ.items() if not succs]

    def validate(self) -> None:
        """Raise if the graph is empty or not a DAG."""
        if not self._tasks:
            raise ValueError("task graph is empty")
        self._topological_ids()

    def _topological_ids(self) -> List[str]:
        """Kahn's sort, smallest ready id first (networkx's lexicographic order)."""
        if self._topo_ids is None:
            indegree = {task_id: len(preds) for task_id, preds in self._pred.items()}
            ready = [task_id for task_id, degree in indegree.items() if degree == 0]
            heapq.heapify(ready)
            order: List[str] = []
            while ready:
                task_id = heapq.heappop(ready)
                order.append(task_id)
                for successor in self._succ[task_id]:
                    indegree[successor] -= 1
                    if indegree[successor] == 0:
                        heapq.heappush(ready, successor)
            if len(order) != len(self._tasks):
                raise ValueError("task graph contains a cycle")
            self._topo_ids = order
        return self._topo_ids

    def topological_order(self) -> List[Task]:
        """Tasks in a deterministic topological order (ties by task id)."""
        tasks = self._tasks
        return [tasks[task_id] for task_id in self._topological_ids()]

    def ready_tasks(self) -> List[Task]:
        """PENDING tasks whose predecessors are all COMPLETED."""
        ready = []
        for task_id, task in self._tasks.items():
            if task.state is not TaskState.PENDING:
                continue
            if all(p.state is TaskState.COMPLETED for p in self._pred[task_id].values()):
                ready.append(task)
        return sorted(ready, key=lambda t: t.task_id)

    def completed(self) -> List[Task]:
        return [t for t in self._tasks.values() if t.state is TaskState.COMPLETED]

    def is_complete(self) -> bool:
        return all(t.state is TaskState.COMPLETED for t in self._tasks.values())

    def tasks_by_interface(self, interface: AgentInterface) -> List[Task]:
        return [t for t in self._tasks.values() if t.interface is interface]

    def interfaces(self) -> List[AgentInterface]:
        """Distinct interfaces present, in first-appearance (stage) order."""
        seen: List[AgentInterface] = []
        for task in self._tasks.values():
            if task.interface not in seen:
                seen.append(task.interface)
        return seen

    def counts_by_interface(self) -> Dict[AgentInterface, int]:
        counts: Dict[AgentInterface, int] = {}
        for task in self._tasks.values():
            counts[task.interface] = counts.get(task.interface, 0) + 1
        return counts

    def pending_counts_by_interface(self) -> Dict[AgentInterface, int]:
        """Remaining (non-completed) tasks per interface — the demand signal
        the orchestrator announces to the cluster manager."""
        counts: Dict[AgentInterface, int] = {}
        for task in self._tasks.values():
            if task.state is not TaskState.COMPLETED:
                counts[task.interface] = counts.get(task.interface, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def critical_path(
        self, duration_fn: Callable[[Task], float]
    ) -> Tuple[float, List[Task]]:
        """Longest path through the DAG under ``duration_fn`` (per-task cost)."""
        self.validate()
        longest: Dict[str, float] = {}
        parent: Dict[str, Optional[str]] = {}
        for task in self.topological_order():
            duration = duration_fn(task)
            if duration < 0:
                raise ValueError(f"negative duration for task {task.task_id}")
            predecessors = [p.task_id for p in self.predecessors(task.task_id)]
            if predecessors:
                best = max(predecessors, key=lambda p: longest[p])
                longest[task.task_id] = longest[best] + duration
                parent[task.task_id] = best
            else:
                longest[task.task_id] = duration
                parent[task.task_id] = None
        end = max(longest, key=lambda t: longest[t])
        path: List[Task] = []
        cursor: Optional[str] = end
        while cursor is not None:
            path.append(self._tasks[cursor])
            cursor = parent[cursor]
        path.reverse()
        return longest[end], path

    def stage_order(self) -> List[str]:
        """Distinct stage names in topological order of first appearance."""
        if self._stage_order is None:
            seen: List[str] = []
            for task in self.topological_order():
                if task.stage not in seen:
                    seen.append(task.stage)
            self._stage_order = seen
        return list(self._stage_order)

    def describe(self) -> str:
        """A compact, human-readable rendering of the DAG."""
        lines = [f"TaskGraph {self.workflow_id!r}: {len(self)} tasks"]
        for stage in self.stage_order():
            stage_tasks = [t for t in self._tasks.values() if t.stage == stage]
            lines.append(f"  stage {stage}: {len(stage_tasks)} task(s)")
        return "\n".join(lines)
