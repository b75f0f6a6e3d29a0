"""Workflow execution on the simulated cluster.

The executor drives a :class:`~repro.core.dag.TaskGraph` to completion on the
discrete-event engine under an :class:`~repro.core.planner.ExecutionPlan`:

* GPU (and hybrid GPU+CPU) assignments are backed by long-lived serving
  instances deployed through the cluster manager; tasks queue on their
  instance and serialise on its capacity,
* CPU-only assignments allocate cores per task, bounded by the assignment's
  concurrency (the "64 CPU cores for Speech-to-Text" style budget),
* dataflow outputs of completed tasks are merged into their consumers'
  inputs, so agents produce functional end-to-end results,
* every execution is recorded as trace intervals (Figure-3-style timelines),
  and progress is announced to the cluster manager so it can rebalance
  (workflow-aware cluster management).

The same executor also runs the OmAgent-style baseline: ``sequential=True``
forces one task at a time in deterministic topological order, reproducing
the rigid imperative execution the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.agents.base import (
    AgentImplementation,
    AgentInterface,
    AgentResult,
    ExecutionEstimate,
    WorkUnit,
)
from repro.agents.library import AgentLibrary
from repro.agents.synthetic import stable_embedding
from repro.cluster.allocator import MODEL_OWNER_PREFIX, Allocation, ResourceRequest
from repro.cluster.manager import ClusterManager, ModelInstance
from repro.cluster.telemetry_exchange import WorkflowAnnouncement
from repro.core.dag import TaskGraph
from repro.core.planner import ExecutionPlan, PlanAssignment, PlanningError
from repro.core.task import Task, TaskState
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace

#: Display categories used for Figure-3-style timelines.
DISPLAY_CATEGORIES: Dict[AgentInterface, str] = {
    AgentInterface.SCENE_SUMMARIZATION: "LLM (Text)",
    AgentInterface.QUESTION_ANSWERING: "LLM (Text)",
    AgentInterface.TEXT_GENERATION: "LLM (Text)",
    AgentInterface.SPEECH_TO_TEXT: "Speech-to-Text",
    AgentInterface.EMBEDDING: "LLM (Embeddings)",
    AgentInterface.OBJECT_DETECTION: "Object Detection",
    AgentInterface.FRAME_EXTRACTION: "Frame Extraction",
    AgentInterface.VECTOR_DB: "Vector DB",
    AgentInterface.SENTIMENT_ANALYSIS: "Sentiment",
    AgentInterface.WEB_SEARCH: "Web Search",
    AgentInterface.CALCULATION: "Tool",
}


def display_category(interface: AgentInterface) -> str:
    """Human-readable timeline category for an interface."""
    return DISPLAY_CATEGORIES.get(interface, interface.value.replace("_", " ").title())


class ExecutionError(RuntimeError):
    """Raised when a workflow cannot make progress (e.g. cluster too small).

    When raised from inside an executor's event callbacks, :attr:`executor`
    names the workflow that failed so multi-tenant coordinators can abort
    just that workflow and keep the shared engine running.
    """

    executor: Optional["WorkflowExecutor"] = None


@dataclass
class ServerHandle:
    """One deployed serving instance shared by all tasks routed to it."""

    group: str
    assignment_config_key: str
    instance: ModelInstance
    slots: int = 1
    active: int = 0
    #: Set when the instance is gone (its node was lost, or it was evicted
    #: to make room); lanes holding the handle must redeploy before use.
    dead: bool = False
    #: Executors with work queued on this instance, waiting for a slot.
    #: Notified (in registration order) whenever a slot frees, so a workflow
    #: whose tasks all target a busy shared instance is woken by *another*
    #: workflow's completion instead of stalling forever.
    waiters: List[object] = field(default_factory=list)

    @property
    def gpu_ids(self) -> Tuple[str, ...]:
        return self.instance.allocation.gpu_ids

    @property
    def node_id(self) -> str:
        return self.instance.allocation.node_id

    @property
    def gpus(self) -> int:
        return self.instance.gpus

    def has_capacity(self) -> bool:
        return self.active < self.slots


class ServerPool:
    """Deploys and shares serving instances keyed by (deployment group, config).

    Implementations that declare the same ``server_group`` (e.g. NVLM
    summarisation and NVLM question answering) share one instance, exactly as
    one model server would serve both request types in a real deployment.
    Pools can be shared across workflows to get the paper's multi-tenant
    resource multiplexing.
    """

    def __init__(self, cluster_manager: ClusterManager, library: AgentLibrary) -> None:
        self.cluster_manager = cluster_manager
        self.library = library
        self._handles: Dict[Tuple[str, str], ServerHandle] = {}

    def ensure(self, assignment: PlanAssignment) -> ServerHandle:
        """Return (deploying if necessary) the instance for an assignment."""
        implementation = self.library.get(assignment.agent_name)
        group = implementation.deployment_group
        key = (group, assignment.config.describe())
        handle = self._handles.get(key)
        if handle is not None:
            return handle
        instance = self.cluster_manager.deploy_model(
            agent_name=group,
            gpus=assignment.config.gpus,
            cpu_cores=assignment.config.cpu_cores,
            gpu_generation=assignment.config.gpu_generation,
        )
        handle = ServerHandle(
            group=group,
            assignment_config_key=assignment.config.describe(),
            instance=instance,
            slots=assignment.max_concurrency,
        )
        self._handles[key] = handle
        return handle

    def handles(self) -> List[ServerHandle]:
        return list(self._handles.values())

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """Deterministic fingerprint of the deployed (group, config) set.

        Changes exactly when a serving instance is deployed or torn down —
        the invalidation signal for schedulers that memoize steady-state
        behaviour against a warm pool.
        """
        return tuple(sorted(self._handles.keys()))

    def total_gpus(self) -> int:
        return sum(handle.gpus for handle in self._handles.values())

    def invalidate_node(self, node_id: str) -> List[ServerHandle]:
        """Drop handles whose instance lived on a lost node.

        The instances were already deregistered by
        :meth:`~repro.cluster.manager.ClusterManager.handle_node_loss`; this
        removes the stale handles so the next :meth:`ensure` redeploys on
        surviving capacity.  Returns the dropped handles.
        """
        dropped = []
        for key, handle in list(self._handles.items()):
            if handle.node_id == node_id:
                handle.dead = True
                dropped.append(self._handles.pop(key))
        return dropped

    def evict_idle_for(self, assignment: PlanAssignment) -> bool:
        """Tear down idle instances until ``assignment`` could deploy.

        The paper's reclamation example (§3.2): give Whisper's idle GPU to
        Llama once no Speech-to-Text work is running.  Idle handles are
        evicted in deterministic key order, stopping as soon as the cluster
        can satisfy the assignment's shape; returns whether it now can.
        Evicted handles are flagged :attr:`ServerHandle.dead` so lanes still
        holding them redeploy instead of scheduling onto released devices.
        """
        request = ResourceRequest(
            owner=f"{MODEL_OWNER_PREFIX}{assignment.agent_name}",
            gpus=assignment.config.gpus,
            cpu_cores=assignment.config.cpu_cores,
            gpu_generation=assignment.config.gpu_generation,
        )
        for key in sorted(self._handles):
            if self.cluster_manager.can_satisfy(request):
                break
            handle = self._handles[key]
            if handle.active or handle.dead:
                continue
            handle.dead = True
            del self._handles[key]
            self.cluster_manager.teardown_model(handle.instance)
        return self.cluster_manager.can_satisfy(request)

    def teardown_all(self) -> None:
        for handle in self._handles.values():
            self.cluster_manager.teardown_model(handle.instance)
        self._handles.clear()


@dataclass
class _Lane:
    """Dispatch state for one plan assignment."""

    assignment: PlanAssignment
    implementation: AgentImplementation
    server: Optional[ServerHandle] = None
    active: int = 0
    queue: List[Task] = field(default_factory=list)

    def backlog(self) -> int:
        return self.active + len(self.queue)

    def has_capacity(self) -> bool:
        if self.server is not None:
            return self.server.has_capacity()
        return self.active < self.assignment.max_concurrency


class WorkflowExecutor:
    """Runs one task graph to completion on the simulation engine."""

    def __init__(
        self,
        engine: SimulationEngine,
        cluster_manager: ClusterManager,
        library: AgentLibrary,
        plan: ExecutionPlan,
        server_pool: Optional[ServerPool] = None,
        trace: Optional[ExecutionTrace] = None,
        sequential: bool = False,
        announce: bool = True,
        workflow_id: str = "workflow",
        on_finish: Optional[Callable[["WorkflowExecutor"], None]] = None,
        replanner: Optional[Callable[[AgentInterface], PlanAssignment]] = None,
        stop_when_finished: bool = False,
        fabric=None,
    ) -> None:
        self.engine = engine
        self.cluster_manager = cluster_manager
        self.library = library
        self.plan = plan
        self.server_pool = server_pool or ServerPool(cluster_manager, library)
        self.trace = trace if trace is not None else ExecutionTrace(label=workflow_id)
        self.sequential = sequential
        self.announce = announce
        self.workflow_id = workflow_id
        #: Invoked exactly once, when the last task completes.  Multi-job
        #: coordinators use this to account each job's completion as it
        #: happens (streaming accounting) instead of scanning every executor
        #: after the engine drains.
        self.on_finish = on_finish
        #: Asked for a fresh :class:`PlanAssignment` when cluster dynamics
        #: revoke a lane's serving instance and the planned configuration no
        #: longer fits the shrunken cluster (set by the runtime when a
        #: dynamics schedule is attached).
        self.replanner = replanner
        #: When True, :meth:`execute` stops stepping the engine as soon as
        #: this workflow finishes instead of draining the queue.  Required
        #: under cluster dynamics, whose events extend to the end of the
        #: disruption horizon; the default drain keeps the optimized
        #: single-workflow hot loop.
        self.stop_when_finished = stop_when_finished

        self.results: Dict[str, AgentResult] = {}
        self._graph: Optional[TaskGraph] = None
        self._lanes: Dict[AgentInterface, List[_Lane]] = {}
        self._order_index: Dict[str, int] = {}
        self._global_active = 0
        self._retry_scheduled = False
        #: Allocation retries since a task last started (see
        #: MAX_ALLOCATION_RETRIES).
        self._retry_count = 0
        #: Readiness and progress counters, maintained incrementally as
        #: tasks complete instead of rescanning the whole graph on every
        #: dispatch and announcement; read only through :meth:`_take_ready`,
        #: :meth:`_is_complete` and :meth:`_progress`.
        self._pending_preds: Dict[str, int] = {}
        self._ready_pool: List[Task] = []
        self._completed_count = 0
        self._pending_by_interface: Dict[AgentInterface, int] = {}
        #: task_id -> (completion event, task, lane, allocation): the tasks
        #: currently executing, so a node loss can cancel and requeue them.
        self._inflight: Dict[str, tuple] = {}
        self._aborted = False
        #: How many node-loss events actually disrupted this workflow.
        self.disruptions = 0
        #: Tasks requeued and lane replans forced by those disruptions.
        self.requeued_tasks = 0
        self.replans = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Attached :class:`~repro.fabric.FabricTopology`, or ``None`` for
        #: the historical free-data-movement behaviour.  With a fabric,
        #: every dependent-stage edge whose payload costs time on the links
        #: delays the consumer and is accounted below; zero-cost edges
        #: (same node, or an uncontended fabric) change nothing at all.
        self.fabric = fabric
        #: ``task_id -> (node_id, payload_bytes, finished_at)`` of completed
        #: producers, recorded only when a fabric is attached.
        self._output_sites: Dict[str, Tuple[str, int, float]] = {}
        #: Transfer accounting over *costed* edges (``transfer_time > 0``).
        self.transfer_events = 0
        self.transferred_bytes = 0
        self.cross_rack_bytes = 0
        self.transfer_seconds = 0.0
        self.transfer_wh = 0.0

    #: How long to wait before re-trying dispatch when the cluster could not
    #: satisfy a per-task allocation (another workflow may free resources).
    ALLOCATION_RETRY_S = 1.0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def start(self, graph: TaskGraph, delay: float = 0.0) -> None:
        """Deploy serving instances and schedule the first dispatch pass."""
        # The topological order is cached by decomposition (and carried over
        # by stamps), and computing it rejects a cyclic graph, so it doubles
        # as the validation.
        order = graph.topological_order()
        if not order:
            raise ValueError("task graph is empty")
        self._graph = graph
        self._order_index = {task.task_id: index for index, task in enumerate(order)}
        # Seed the counters from current task states so graphs arriving
        # with some tasks already COMPLETED account correctly.
        self._completed_count = sum(
            1 for task in graph if task.state is TaskState.COMPLETED
        )
        self._pending_by_interface = dict(graph.pending_counts_by_interface())
        self._pending_preds = {}
        self._ready_pool = []
        for task in graph:
            degree = sum(
                1
                for p in graph.predecessors(task.task_id)
                if p.state is not TaskState.COMPLETED
            )
            self._pending_preds[task.task_id] = degree
            if degree == 0 and task.state is TaskState.PENDING:
                self._ready_pool.append(task)
        self._build_lanes(graph)
        if self.announce:
            self._announce()
        self.engine.schedule(delay, self._begin)

    def execute(self, graph: TaskGraph, delay: float = 0.0) -> Dict[str, AgentResult]:
        """Run ``graph`` to completion (drives the engine) and return results."""
        self.start(graph, delay=delay)
        if self.stop_when_finished:
            # Dynamics events (spot windows, failures, autoscale ticks) may
            # be queued far past this workflow's completion; step only until
            # our own finish so the engine clock stays at the job boundary.
            while self.finished_at is None and self.engine.step():
                pass
        else:
            self.engine.run()
        if not graph.is_complete():
            incomplete = [t.task_id for t in graph if t.state is not TaskState.COMPLETED]
            raise self._execution_error(
                f"workflow {self.workflow_id!r} stalled with incomplete tasks: {incomplete[:5]}"
            )
        return self.results

    @property
    def makespan(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _build_lanes(self, graph: TaskGraph) -> None:
        for interface in graph.interfaces():
            assignments = self.plan.assignments_for(interface)
            lanes: List[_Lane] = []
            for assignment in assignments:
                implementation = self.library.get(assignment.agent_name)
                server = None
                if assignment.uses_gpu:
                    if self.replanner is not None:
                        # Elastic mode: the cluster may have shrunk since
                        # planning, so a full up-front deployment can be
                        # collectively infeasible.  Deploy what fits now
                        # (evicting idle instances if needed) and leave the
                        # rest to the dispatch-time repair path, which
                        # redeploys or replans stage by stage.
                        server = self._try_deploy(assignment)
                    else:
                        server = self.server_pool.ensure(assignment)
                lanes.append(
                    _Lane(assignment=assignment, implementation=implementation, server=server)
                )
            self._lanes[interface] = lanes

    def _begin(self) -> None:
        self.started_at = self.engine.now
        self._dispatch()

    def abort(self) -> None:
        """Cancel in-flight work and release everything this workflow holds.

        Called when the workflow is given up on (an unrecoverable
        :class:`ExecutionError` under cluster dynamics) while other work
        shares the engine: without this, the dead workflow's completion
        events keep firing, its server slots stay occupied, and its CPU
        allocations leak into every subsequent job.
        """
        self._aborted = True
        released_servers = []
        for task_id, (event, task, lane, allocation) in list(self._inflight.items()):
            event.cancel()
            lane.active -= 1
            if lane.server is not None:
                lane.server.active -= 1
                if lane.server not in released_servers:
                    released_servers.append(lane.server)
            self._global_active -= 1
            if allocation is not None:
                self.cluster_manager.release(allocation)
            task.mark(TaskState.CANCELLED)
        self._inflight.clear()
        for lanes in self._lanes.values():
            for lane in lanes:
                lane.queue.clear()
                if lane.server is not None and self in lane.server.waiters:
                    lane.server.waiters.remove(self)
        self._ready_pool = []
        # The cancelled completions will never fire, so the slots they just
        # freed must wake waiting executors here or they stall forever.
        for server in released_servers:
            if server.waiters:
                self._notify_server_waiters(server)
        if self.announce:
            self.cluster_manager.retract_workflow(self.workflow_id)

    # ------------------------------------------------------------------ #
    # Dispatch loop
    # ------------------------------------------------------------------ #
    def _dispatch(self) -> None:
        if self._aborted:
            return
        assert self._graph is not None
        ready = self._take_ready()
        ready.sort(key=lambda task: self._order_index[task.task_id])
        for task in ready:
            lanes = self._lanes[task.interface]
            lane = min(lanes, key=lambda l: l.backlog())
            lane.queue.append(task)
            lane.queue.sort(key=lambda t: self._order_index[t.task_id])
            task.mark(TaskState.READY)
        made_progress = False
        for lanes in self._lanes.values():
            for lane in lanes:
                made_progress |= self._pump(lane)
        if (
            not made_progress
            and self._global_active == 0
            and not self._is_complete()
            and not any(lane.queue for lanes in self._lanes.values() for lane in lanes)
        ):
            # Nothing queued, nothing running, graph unfinished: every ready
            # task was just queued and none can become ready without a
            # completion, so the dependencies can never be satisfied.
            raise self._execution_error(
                f"workflow {self.workflow_id!r} deadlocked: no runnable tasks remain"
            )

    def _execution_error(self, message: str) -> ExecutionError:
        error = ExecutionError(message)
        error.executor = self
        return error

    def _take_ready(self) -> List[Task]:
        """Hand over the tasks that became ready since the last dispatch."""
        ready = self._ready_pool
        self._ready_pool = []
        return ready

    def _is_complete(self) -> bool:
        assert self._graph is not None
        return self._completed_count == len(self._graph)

    def _progress(self) -> Tuple[Dict[AgentInterface, int], int]:
        """``(pending tasks per interface, completed tasks)`` to announce."""
        return self._pending_by_interface, self._completed_count

    def _pump(self, lane: _Lane) -> bool:
        """Start as many queued tasks on ``lane`` as capacity allows."""
        started = False
        while lane.queue and lane.has_capacity():
            if self.sequential and self._global_active > 0:
                break
            if self.sequential and not self._is_next_in_order(lane.queue[0]):
                break
            if lane.server is not None and lane.server.dead:
                # The instance behind this handle is gone (node loss, or
                # evicted to make room elsewhere); never schedule onto it.
                lane.server = None
            if lane.server is None and lane.assignment.uses_gpu:
                # The lane's serving instance was lost to a preemption or
                # failure; redeploy (or replan) before any task can start.
                if not self._repair_lane(lane):
                    if self._global_active == 0 and not self._retry_scheduled:
                        self._retry_scheduled = True
                        self.engine.schedule(self.ALLOCATION_RETRY_S, self._retry_dispatch)
                    break
            task = lane.queue[0]
            allocation: Optional[Allocation] = None
            if lane.server is None:
                cpu_cores = lane.assignment.config.cpu_cores
                if cpu_cores > self.cluster_manager.cluster.total_cpu_cores:
                    raise self._execution_error(
                        f"task {task.task_id} needs {cpu_cores} CPU cores but the cluster "
                        f"only has {self.cluster_manager.cluster.total_cpu_cores}"
                    )
                request = ResourceRequest(
                    owner=f"{self.workflow_id}:{task.task_id}",
                    cpu_cores=cpu_cores,
                )
                allocation = self.cluster_manager.allocate(request)
                if allocation is None:
                    # Resources are held elsewhere (possibly by another
                    # workflow sharing the cluster); retry after a short wait
                    # unless one of our own completions will re-trigger
                    # dispatch anyway.
                    if self._global_active == 0 and not self._retry_scheduled:
                        self._retry_scheduled = True
                        self.engine.schedule(self.ALLOCATION_RETRY_S, self._retry_dispatch)
                    break
            lane.queue.pop(0)
            self._start_task(task, lane, allocation)
            started = True
        if (
            lane.queue
            and lane.server is not None
            and not lane.server.has_capacity()
            and self not in lane.server.waiters
        ):
            lane.server.waiters.append(self)
        return started

    #: Upper bound on consecutive allocation retries before declaring the
    #: workflow stuck (prevents an un-runnable workflow from spinning the
    #: event loop forever).
    MAX_ALLOCATION_RETRIES = 10_000

    def _retry_dispatch(self) -> None:
        self._retry_scheduled = False
        if self._aborted:
            return
        self._retry_count += 1
        if self._retry_count > self.MAX_ALLOCATION_RETRIES:
            raise self._execution_error(
                f"workflow {self.workflow_id!r} could not obtain resources after "
                f"{self.MAX_ALLOCATION_RETRIES} retries"
            )
        assert self._graph is not None
        if not self._is_complete():
            self._dispatch()

    def _notify_server_waiters(self, server: ServerHandle) -> None:
        """Wake executors queued behind the slot this completion just freed."""
        waiters = server.waiters
        server.waiters = []
        for waiter in waiters:
            if waiter is self:
                # Our own dispatch runs at the end of _complete_task anyway.
                continue
            self.engine.schedule(0.0, waiter._resume_after_server_release)

    def _resume_after_server_release(self) -> None:
        if self._aborted:
            return
        if self._graph is not None and not self._is_complete():
            self._dispatch()

    # ------------------------------------------------------------------ #
    # Cluster-dynamics recovery (spot preemption / server failure)
    # ------------------------------------------------------------------ #
    def on_node_loss(self, node_id: str) -> None:
        """React to a lost node: requeue in-flight tasks, repair lanes.

        Called by :class:`~repro.cluster.dynamics.ClusterDynamics` after the
        cluster manager reclaimed the node's allocations and the server pool
        dropped its handles.  Tasks running on the node (on its serving
        instance, or holding a CPU allocation there) are cancelled and put
        back on their lane's queue; lanes whose server died redeploy lazily
        on the next dispatch (replanning through :attr:`replanner` if the
        planned configuration no longer fits).
        """
        if self._aborted or self._graph is None or self._is_complete():
            return
        # Stale handles must leave the pool whether or not the dynamics
        # layer watches it (per-submit pools are only reachable from here);
        # invalidation is idempotent, so a watched pool is fine too.
        self.server_pool.invalidate_node(node_id)
        affected = False
        for task_id, (event, task, lane, allocation) in list(self._inflight.items()):
            on_lost_server = lane.server is not None and lane.server.node_id == node_id
            on_lost_cpu = allocation is not None and allocation.node_id == node_id
            if not (on_lost_server or on_lost_cpu):
                continue
            event.cancel()
            del self._inflight[task_id]
            lane.active -= 1
            if lane.server is not None:
                lane.server.active -= 1
            self._global_active -= 1
            # No allocation to release here: a task holds one only on a
            # serverless (CPU) lane, so matching on_lost_cpu means the
            # node's reclaim already revoked it.
            task.requeue()
            task.mark(TaskState.READY)
            lane.queue.append(task)
            lane.queue.sort(key=lambda t: self._order_index[t.task_id])
            self.requeued_tasks += 1
            affected = True
        for lanes in self._lanes.values():
            for lane in lanes:
                if lane.server is not None and lane.server.node_id == node_id:
                    lane.server = None
                    affected = True
        if affected:
            self.disruptions += 1
            self.engine.schedule(0.0, self._resume_after_server_release)

    def _repair_lane(self, lane: _Lane) -> bool:
        """Re-acquire a serving instance for a lane whose server was lost.

        First redeploys the planned configuration (evicting idle instances
        if that is what it takes — the paper's reclamation lever); if the
        shrunken cluster cannot fit it, asks :attr:`replanner` (when
        provided) for a fresh assignment against current cluster stats.
        Returns ``False`` when neither works — the caller retries after
        ``ALLOCATION_RETRY_S``.
        """
        server = self._try_deploy(lane.assignment)
        if server is not None:
            lane.server = server
            return True
        if self.replanner is None:
            return False
        try:
            assignment = self.replanner(lane.assignment.interface)
        except PlanningError:
            return False
        if assignment is None or assignment.config == lane.assignment.config:
            return False
        if assignment.uses_gpu:
            server = self._try_deploy(assignment)
            if server is None:
                return False
        else:
            server = None
        planned = self.plan.assignments.get(assignment.interface)
        if planned and lane.assignment in planned:
            planned[planned.index(lane.assignment)] = assignment
        lane.assignment = assignment
        lane.implementation = self.library.get(assignment.agent_name)
        lane.server = server
        self.replans += 1
        return True

    def _try_deploy(self, assignment: PlanAssignment) -> Optional[ServerHandle]:
        """Deploy ``assignment``, evicting idle instances if needed."""
        try:
            return self.server_pool.ensure(assignment)
        except RuntimeError:
            pass
        if not self.server_pool.evict_idle_for(assignment):
            return None
        try:
            return self.server_pool.ensure(assignment)
        except RuntimeError:
            return None

    def _is_next_in_order(self, task: Task) -> bool:
        """In sequential (baseline) mode, only the globally next pending task
        in topological order may start."""
        assert self._graph is not None
        pending = [
            t
            for t in self._graph
            if t.state in (TaskState.PENDING, TaskState.READY)
        ]
        if not pending:
            return True
        next_task = min(pending, key=lambda t: self._order_index[t.task_id])
        return next_task.task_id == task.task_id

    def _any_other_active_or_pending(self, lane: _Lane) -> bool:
        for lanes in self._lanes.values():
            for other in lanes:
                if other is lane:
                    continue
                if other.active > 0 or other.queue:
                    return True
        return False

    def _start_task(self, task: Task, lane: _Lane, allocation: Optional[Allocation]) -> None:
        assignment = lane.assignment
        estimate = lane.implementation.estimate(task.work, assignment.config, assignment.mode)
        transfer_s = 0.0
        if self.fabric is not None:
            transfer_s = self._absorb_transfers(task, lane, allocation)
        task.mark(TaskState.RUNNING)
        task.started_at = self.engine.now + transfer_s
        self._retry_count = 0
        lane.active += 1
        if lane.server is not None:
            lane.server.active += 1
        self._global_active += 1
        # The residual transfer wait folds into the task's single completion
        # event, so attaching a fabric adds no engine events at all.
        event = self.engine.schedule(
            transfer_s + estimate.seconds, self._complete_task, task, lane, allocation, estimate
        )
        self._inflight[task.task_id] = (event, task, lane, allocation)

    def _absorb_transfers(
        self, task: Task, lane: _Lane, allocation: Optional[Allocation]
    ) -> float:
        """Account ``task``'s costed input transfers; return the residual wait.

        Each payload starts moving the moment its producer finishes and the
        transfers proceed in parallel, so the consumer waits only until the
        *latest* payload arrives.  Edges the fabric moves for free
        (``transfer_time == 0``: same node, or an unlimited link) are neither
        delayed nor counted — that keeps the zero-cost ``uniform`` profile
        byte-identical to running with no fabric attached.
        """
        assert self._graph is not None
        fabric = self.fabric
        if lane.server is not None:
            dest = lane.server.node_id
        elif allocation is not None:
            dest = allocation.node_id
        else:
            dest = ""
        if not dest:
            return 0.0
        now = self.engine.now
        ready_at = now
        for pred in self._graph.predecessors(task.task_id):
            site = self._output_sites.get(pred.task_id)
            if site is None:
                continue
            src_node, payload_bytes, available_at = site
            seconds = fabric.transfer_time(src_node, dest, payload_bytes)
            if seconds <= 0.0:
                continue
            self.transfer_events += 1
            self.transferred_bytes += payload_bytes
            self.transfer_seconds += seconds
            self.transfer_wh += fabric.transfer_energy_wh(payload_bytes)
            if fabric.is_cross_rack(src_node, dest):
                self.cross_rack_bytes += payload_bytes
            arrived_at = available_at + seconds
            if arrived_at > ready_at:
                ready_at = arrived_at
        extra = ready_at - now
        if extra > 0.0:
            # A zero-device interval: visible on the Gantt timeline, free in
            # the compute-energy integral (transfer energy is accounted
            # separately from the fabric's per-GB figure).
            self.trace.add(
                task_id=f"{task.task_id}/transfer",
                task_name=f"input transfer for {task.task_id}",
                category="Transfer",
                start=now,
                end=ready_at,
                node_id=dest,
                metadata={"stage": task.stage, "workflow": self.workflow_id},
            )
        return extra

    def _complete_task(
        self,
        task: Task,
        lane: _Lane,
        allocation: Optional[Allocation],
        estimate: ExecutionEstimate,
    ) -> None:
        assert self._graph is not None
        self._inflight.pop(task.task_id, None)
        task.finished_at = self.engine.now
        self._record_trace(task, lane, allocation, estimate)
        if self.fabric is not None:
            if lane.server is not None:
                site_node = lane.server.node_id
            elif allocation is not None:
                site_node = allocation.node_id
            else:
                site_node = ""
            if site_node:
                self._output_sites[task.task_id] = (
                    site_node,
                    lane.implementation.output_payload_bytes,
                    self.engine.now,
                )

        merged_work = self._compose_work(task)
        result = lane.implementation.execute(merged_work, lane.assignment.config, lane.assignment.mode)
        self.results[task.task_id] = result
        task.mark(TaskState.COMPLETED)

        lane.active -= 1
        if lane.server is not None:
            lane.server.active -= 1
            if lane.server.waiters:
                self._notify_server_waiters(lane.server)
        self._global_active -= 1
        if allocation is not None:
            self.cluster_manager.release(allocation)

        self._completed_count += 1
        self._pending_by_interface[task.interface] -= 1
        pending_preds = self._pending_preds
        for successor in self._graph.successors(task.task_id):
            remaining = pending_preds[successor.task_id] - 1
            pending_preds[successor.task_id] = remaining
            if remaining == 0 and successor.state is TaskState.PENDING:
                self._ready_pool.append(successor)

        if self.announce:
            self._announce()
        if self._is_complete():
            self.finished_at = self.engine.now
            if self.announce:
                self.cluster_manager.retract_workflow(self.workflow_id)
            self.engine.mark(self.workflow_id)
            if self.on_finish is not None:
                self.on_finish(self)
        else:
            self._dispatch()

    # ------------------------------------------------------------------ #
    # Trace + telemetry
    # ------------------------------------------------------------------ #
    def _record_trace(
        self,
        task: Task,
        lane: _Lane,
        allocation: Optional[Allocation],
        estimate: ExecutionEstimate,
    ) -> None:
        if lane.server is not None:
            gpu_ids = lane.server.gpu_ids
            node_id = lane.server.node_id
            cpu_cores = lane.assignment.config.cpu_cores
        else:
            gpu_ids = allocation.gpu_ids if allocation else ()
            node_id = allocation.node_id if allocation else ""
            cpu_cores = allocation.cpu_cores if allocation else lane.assignment.config.cpu_cores
        self.trace.add(
            task_id=task.task_id,
            task_name=task.description,
            category=display_category(task.interface),
            start=task.started_at if task.started_at is not None else self.engine.now,
            end=self.engine.now,
            node_id=node_id,
            gpu_ids=tuple(gpu_ids),
            cpu_cores=cpu_cores,
            gpu_utilization=estimate.gpu_utilization,
            cpu_utilization=estimate.cpu_utilization,
            metadata={
                "agent": lane.assignment.agent_name,
                "stage": task.stage,
                "workflow": self.workflow_id,
            },
        )

    def _announce(self) -> None:
        assert self._graph is not None
        pending, completed = self._progress()
        announcement = WorkflowAnnouncement(
            workflow_id=self.workflow_id,
            timestamp=self.engine.now,
            upcoming_demand={
                iface.value: count for iface, count in pending.items() if count > 0
            },
            completed_tasks=completed,
            total_tasks=len(self._graph),
            critical_path=tuple(self._graph.stage_order()),
        )
        self.cluster_manager.announce_workflow(announcement)

    # ------------------------------------------------------------------ #
    # Dataflow composition
    # ------------------------------------------------------------------ #
    def _compose_work(self, task: Task) -> WorkUnit:
        """Merge predecessor outputs into the task's input payload."""
        assert self._graph is not None
        payload = dict(task.work.payload)
        for predecessor in self._graph.predecessors(task.task_id):
            result = self.results.get(predecessor.task_id)
            if result is None:
                continue
            self._merge_output(payload, predecessor.interface, result)
        if task.interface is AgentInterface.QUESTION_ANSWERING:
            self._prepare_question_answering(payload)
        if task.interface is AgentInterface.TEXT_GENERATION:
            self._prepare_text_generation(payload)
        return WorkUnit(kind=task.work.kind, quantity=task.work.quantity, payload=payload)

    @staticmethod
    def _merge_output(payload: Dict[str, object], interface: AgentInterface, result: AgentResult) -> None:
        output = result.output
        if interface is AgentInterface.SPEECH_TO_TEXT:
            payload["transcript"] = output.get("transcript", "")
        elif interface is AgentInterface.OBJECT_DETECTION:
            payload.setdefault("objects", [])
            payload["objects"] = list(payload["objects"]) + [
                obj for obj in output.get("objects", []) if obj not in payload["objects"]
            ]
        elif interface is AgentInterface.SCENE_SUMMARIZATION:
            texts = list(payload.get("texts", []))
            texts.append(output.get("summary", ""))
            payload["texts"] = texts
            summaries = list(payload.get("summaries", []))
            summaries.append(output.get("summary", ""))
            payload["summaries"] = summaries
            objects = list(payload.get("objects", []))
            for obj in output.get("objects", []):
                if obj not in objects:
                    objects.append(obj)
            payload["objects"] = objects
        elif interface is AgentInterface.EMBEDDING:
            payload["embeddings"] = list(payload.get("embeddings", [])) + list(
                output.get("embeddings", [])
            )
            payload["texts"] = list(payload.get("texts", [])) + list(output.get("texts", []))
        elif interface is AgentInterface.VECTOR_DB:
            payload["collection"] = output.get("collection", payload.get("collection"))
        elif interface is AgentInterface.WEB_SEARCH:
            snippets = [r.get("snippet", "") for r in output.get("results", [])]
            payload["context"] = list(payload.get("context", [])) + snippets
        elif interface is AgentInterface.SENTIMENT_ANALYSIS:
            payload["labels"] = list(payload.get("labels", [])) + list(output.get("labels", []))
            payload["texts"] = list(payload.get("texts", [])) + list(output.get("texts", []))
        elif interface is AgentInterface.QUESTION_ANSWERING:
            payload["context"] = list(payload.get("context", [])) + [output.get("answer", "")]
        elif interface is AgentInterface.CALCULATION:
            payload["context"] = list(payload.get("context", [])) + [str(output.get("value", ""))]
        elif interface is AgentInterface.TEXT_GENERATION:
            payload["context"] = list(payload.get("context", [])) + [output.get("text", "")]

    def _prepare_question_answering(self, payload: Dict[str, object]) -> None:
        """Gather context for the final answer: retrieved scenes + detected objects."""
        summaries: List[str] = []
        objects: List[str] = []
        for result in self.results.values():
            if result.interface is AgentInterface.SCENE_SUMMARIZATION:
                summaries.append(str(result.output.get("summary", "")))
                for obj in result.output.get("objects", []):
                    if obj not in objects:
                        objects.append(obj)
        if summaries and not payload.get("context"):
            payload["context"] = summaries
        if objects:
            existing = list(payload.get("objects", []))
            for obj in objects:
                if obj not in existing:
                    existing.append(obj)
            payload["objects"] = existing
        collection = payload.get("collection")
        question = str(payload.get("question", ""))
        if collection and question and "vector-db" in self.library:
            vectordb = self.library.get("vector-db")
            store = getattr(vectordb, "collection", None)
            if callable(store) and len(vectordb.collection(str(collection))):
                matches = vectordb.collection(str(collection)).query(
                    stable_embedding(question), top_k=int(payload.get("top_k", 5))
                )
                payload["context"] = [record.text for record, _score in matches]

    def _prepare_text_generation(self, payload: Dict[str, object]) -> None:
        prompt = str(payload.get("prompt", ""))
        labels = payload.get("labels")
        context = payload.get("context")
        if labels:
            prompt += " | observed sentiments: " + ", ".join(str(label) for label in labels)
        if context:
            prompt += " | context: " + " ".join(str(c) for c in list(context)[:3])
        payload["prompt"] = prompt
