"""Replayed single submissions: a known call on a known warm pool skips the
simulator.

A submission that starts on an idle engine (nothing queued) with no
cluster dynamics and no fabric runs a schedule that is a function of what
it starts from, not of when it starts:

* the template that stamped its graph (the graph's
  :attr:`~repro.core.dag.TaskGraph.stamped_from`) and the decomposition
  delay before its first dispatch,
* its plan's assignments, by value,
* the exact claim state of the cluster: owner, node, GPU ids and cores of
  every active allocation (the warm instances), and the deployment key,
  slots, node and GPU ids of every handle in its server pool,
* a scope shared by every call of a runtime: the executor class, the
  library fingerprint and each implementation's class and public instance
  attributes (which its ``estimate`` may read, such as
  ``seconds_per_item``), the profile-store version, the policy bundle's
  fingerprint, the placement policy's and the cluster's node shapes.

That is this memo's key.  Only stock placement policies, which keep no
state between calls, are eligible, and so is only an executor class whose
``replayable`` is set (the reference oracle's is not).

**Recording.**  A recorded submission simulates as usual while every event
the engine schedules notes the event whose callback scheduled it and its
delay.  The schedule is kept relative to the submission: each event as
``(parent, delay)`` in firing order (parent 0 is the submission itself),
whether it ties its predecessor's time, the allocation-log rows as
operations (deployments and evictions of the server pool, and the tasks'
CPU allocations and releases, with task positions instead of task ids), and
each completion as its task position, plan lane, placement and
utilisations.  Every time the run left behind (trace intervals, task times,
log rows, deployment times) must be one of its event times.

**Confirmation.**  The first sighting of a key stores only a digest of its
schedule.  The second simulates again and compares digests: equal, and the
schedule is stored and replays from then on; different, and the key is
refused for good.  A run that cannot be recorded refuses its key too.

**The float contract.**  A replay recomputes each event's time with the
operation the engine performed, the time of the event that scheduled it
plus its delay, starting from the engine's clock.  If the recomputed times
do not keep the recorded firing order and ties (consecutive events equal
exactly where they were equal, increasing elsewhere), the submission is
simulated instead; otherwise a simulation would have fired the same events
in the same order at exactly these times, so the replay equals it bit for
bit.

**Replay.**  The replay applies the operations in their recorded order,
each at its recomputed time: deployments and evictions go through
:meth:`~repro.core.execution.ServerPool.deploy` and
:meth:`~repro.core.execution.ServerPool.evict`, CPU allocations through
:meth:`~repro.cluster.manager.ClusterManager.claim` on their recorded node,
so allocation ids, claim state and log rows come out as simulated.  It then
rebuilds the trace intervals and the tasks' states and times, records the
completions on the job's dataflow (whose memo supplies the outputs, see
:mod:`repro.core.dataflow`), and finishes the executor at the last event's
time.  Only :attr:`~repro.sim.engine.SimulationEngine.events_fired` and the
count of placement calls differ from a simulated run.

The memo is a :class:`~repro.caches.BoundedMemo`, like the dataflow memo:
bounded by entry count and stored bytes (oldest evicted first) and emptied
by :func:`~repro.profiling.profiler.clear_default_profile_store_cache`.
"""

from __future__ import annotations

import marshal
import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.agents.base import AgentInterface
from repro.caches import CONFIRMED, REFUSED, BoundedMemo, MemoEntry
from repro.cluster.allocator import MODEL_OWNER_PREFIX, ResourceRequest
from repro.core.execution import ServerPool, WorkflowExecutor, display_category
from repro.core.planner import PlanAssignment
from repro.core.task import TaskState
from repro.policies.placement import (
    BestFitPolicy,
    FirstFitPolicy,
    LocalityAwarePlacementPolicy,
    SpotAwarePlacementPolicy,
    SpreadPolicy,
    WorkflowAwarePolicy,
)
from repro.sim.trace import TraceInterval

if TYPE_CHECKING:
    from repro.core.dag import TaskGraph
    from repro.core.runtime import MurakkabRuntime

_INTERFACES = {member.value: member for member in AgentInterface}
_STATELESS_PLACEMENT = (FirstFitPolicy, BestFitPolicy, SpreadPolicy, WorkflowAwarePolicy)

#: Operation kinds of a recorded schedule.
_DEPLOY, _EVICT, _ALLOCATE, _RELEASE = range(4)


def _stateless(policy) -> bool:
    """Whether ``policy`` is a stock placement policy, whose choices depend
    only on the request, the candidates and the allocations it is handed."""
    kind = type(policy)
    if kind in _STATELESS_PLACEMENT:
        return True
    if kind is SpotAwarePlacementPolicy:
        return _stateless(policy._base)
    if kind is LocalityAwarePlacementPolicy:
        return policy._fabric is None and _stateless(policy._base)
    return False


class _Recorder:
    """Notes the clock and the delay of every event the engine schedules
    while installed.

    The engine fires events in ``(time, scheduling order)`` order, and an
    event's time is the clock when it was scheduled plus its delay, so
    these two numbers give the firing order and each event's parent: an
    event that fired at that clock (or the submission itself).
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.start = engine.now
        self.fired_before = engine.events_fired
        #: ``(clock, delay)`` per scheduled event, in scheduling order.
        self.scheduled: List[Tuple[float, float]] = []
        note = self.scheduled.append
        schedule = engine.schedule

        def recording_schedule(delay, callback, *args, **kwargs):
            note((engine.now, delay))
            return schedule(delay, callback, *args, **kwargs)

        engine.schedule = recording_schedule

    def close(self) -> None:
        del self.engine.schedule


class _Entry(MemoEntry):
    __slots__ = ("payload", "assignments")

    def __init__(self, payload: bytes, assignments: tuple) -> None:
        super().__init__(len(payload))
        #: A digest of the schedule while a candidate, the compressed
        #: schedule once confirmed.
        self.payload = payload
        #: The plan assignments whose ids the key holds: alive while the
        #: entry is, so no other object can take one of their ids.
        self.assignments = assignments

    def refuse(self) -> None:
        super().refuse()
        self.payload = b""


def _parameters(implementation) -> tuple:
    """The class of ``implementation`` and its public instance attributes,
    which its ``estimate`` may read beyond what the library fingerprint
    covers (private attributes hold run state, such as the vector
    database's collections)."""
    public = [(name, value) for name, value in vars(implementation).items() if name[0] != "_"]
    return (type(implementation), tuple(sorted(public)))


class _ScheduleMemo(BoundedMemo):
    """The process-wide schedule memo (see the module docstring)."""

    def __init__(self) -> None:
        self.generation = 0
        super().__init__(max_entries=4096, max_bytes=4 << 20, counters=("fallbacks",))

    def clear(self) -> None:
        super().clear()
        #: Scope value -> small token, so keys hash an int instead of the
        #: library's parameters; a new generation invalidates every
        #: runtime's cached token.
        self._scopes: Dict[tuple, int] = {}
        #: One shared copy of each claim state and plan the keys hold.
        self._interned: Dict[tuple, tuple] = {}
        self.generation += 1

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def _scope(self, runtime: "MurakkabRuntime", executor_class: type) -> Optional[int]:
        """The token of ``runtime``'s scope (``None``: not eligible), cached
        on the runtime with what it was computed from.  Implementation
        parameters are read only when the token is computed (a change to
        any of ``checks`` recomputes it): they are taken to be fixed once
        the library serves."""
        library = runtime.library
        library_fingerprint = library.fingerprint()
        bundle = runtime.policy
        placement = runtime.cluster_manager.allocator.policy
        cluster = runtime.cluster
        checks = (
            self.generation,
            library,
            library_fingerprint,
            runtime.profile_store.version,
            bundle,
            placement,
            executor_class,
            cluster,
            cluster.topology_version,
        )
        cached = runtime._schedule_scope
        if cached is not None and cached[0] == checks:
            return cached[1]
        value = (
            executor_class,
            library_fingerprint,
            tuple(_parameters(library.get(name)) for name in library.names()),
            runtime.profile_store.version,
            bundle.fingerprint() if bundle is not None else None,
            placement.fingerprint(),
            tuple(
                (node.node_id, node.gpu_generation.value, node.total_gpus, node.total_cpu_cores)
                for node in cluster
            ),
        )
        try:
            token: Optional[int] = self._scopes.setdefault(value, len(self._scopes))
        except TypeError:
            # An unhashable instance attribute cannot key what the
            # implementation estimates: this runtime never replays.
            token = None
        runtime._schedule_scope = (checks, token)
        return token

    def _intern(self, value: tuple) -> tuple:
        interned = self._interned
        if len(interned) > 2 * self.max_entries:
            interned.clear()
        return interned.setdefault(value, value)

    def key(
        self,
        runtime: "MurakkabRuntime",
        executor: WorkflowExecutor,
        graph: "TaskGraph",
        delay: float,
        pool: ServerPool,
    ) -> Optional[tuple]:
        """The submission's key, or ``None`` when it is not eligible."""
        template = graph.stamped_from
        manager = runtime.cluster_manager
        if (
            template is None
            or not executor.replayable
            or runtime.dynamics is not None
            or runtime.fabric is not None
            or executor.fabric is not None
            or executor.sequential
            or not executor.announce
            or not runtime.engine.idle
            or manager.announced_workflows
            or not _stateless(manager.allocator.policy)
        ):
            return None
        scope = self._scope(runtime, type(executor))
        if scope is None:
            return None
        claims = [
            (allocation.owner, allocation.node_id, allocation.gpu_ids, allocation.cpu_cores)
            for allocation in manager.allocator.active_allocations()
        ]
        handles = []
        for key, handle in pool._handles.items():
            if handle.active or handle.dead or handle.waiters:
                return None
            allocation = handle.instance.allocation
            handles.append((key, handle.slots, allocation.node_id, allocation.gpu_ids))
        # Assignments by identity: an entry holds the objects, so an id in
        # a stored key always names the object it was taken from.
        plan = [
            id(assignment) for lanes in executor.plan.assignments.values() for assignment in lanes
        ]
        # No decision reads the order of allocations or handles, only which
        # exist: sorted, pools that deployed the same instances in another
        # order share their schedules.
        claims.sort()
        handles.sort()
        return (
            scope,
            template,
            delay,
            self._intern(tuple(plan)),
            self._intern((tuple(claims), tuple(handles))),
        )

    # ------------------------------------------------------------------ #
    # Serving a submission
    # ------------------------------------------------------------------ #
    def execute(
        self,
        runtime: "MurakkabRuntime",
        executor: WorkflowExecutor,
        graph: "TaskGraph",
        delay: float,
        pool: ServerPool,
    ) -> None:
        """Run ``executor`` on ``graph``: replayed, or simulated (and
        recorded while its key awaits confirmation)."""
        key = self.key(runtime, executor, graph, delay, pool)
        entry = self.lookup(key)
        if entry is not None and entry.state is CONFIRMED:
            schedule = marshal.loads(zlib.decompress(entry.payload))
            if _replay(schedule, runtime, executor, graph, pool):
                self.count("replayed")
                return
            self.count("fallbacks")
            executor.execute(graph, delay=delay)
            return
        if key is None or entry is not None and entry.state is REFUSED:
            self.count("fresh")
            executor.execute(graph, delay=delay)
            return
        schedule = _record(runtime, executor, graph, delay, pool)
        assignments = tuple(
            assignment for lanes in executor.plan.assignments.values() for assignment in lanes
        )
        if schedule is None:
            self.refuse(key, entry or _Entry(b"", assignments))
            return
        # A process-local digest, like the memo: equal schedules hash equal.
        digest = hash(schedule).to_bytes(8, "little", signed=True)
        if entry is None:
            self.propose(key, _Entry(digest, assignments))
        elif entry.payload == digest:
            self.confirm(key, _Entry(zlib.compress(marshal.dumps(schedule)), assignments))
        else:
            self.refuse(key, entry)


def _record(
    runtime: "MurakkabRuntime",
    executor: WorkflowExecutor,
    graph: "TaskGraph",
    delay: float,
    pool: ServerPool,
) -> Optional[tuple]:
    """Simulate the submission and return its relative schedule, or
    ``None`` when the run cannot be expressed as one."""
    engine = runtime.engine
    manager = runtime.cluster_manager
    marker = manager.last_event
    recorder = _Recorder(engine)
    pool.journal = journal = []
    try:
        executor.execute(graph, delay=delay)
    finally:
        recorder.close()
        pool.journal = None
    rows = manager.events_since(marker)
    scheduled = recorder.scheduled
    if (
        rows is None
        or engine.events_fired - recorder.fired_before != len(scheduled)
        or not engine.idle
    ):
        return None
    return _encode(recorder.start, scheduled, executor, graph, rows, journal)


def _encode(start: float, scheduled, executor, graph, rows, journal) -> Optional[tuple]:
    """The schedule tuple of a recorded run (see the module docstring):
    ``(events, ties, ops, completions, started slot)``, where a slot is a
    firing position (0: the submission, at ``start``).  ``scheduled`` holds
    every event the run scheduled, as ``(clock, delay)``, and every one of
    them fired."""
    fire_times = [clock + delay for clock, delay in scheduled]
    firing = sorted(range(len(scheduled)), key=lambda index: (fire_times[index], index))
    times = [start]
    slot_of: Dict[float, int] = {start: 0}
    for position, index in enumerate(firing, start=1):
        times.append(fire_times[index])
        slot_of.setdefault(fire_times[index], position)
    events = []
    ties = []
    for position, index in enumerate(firing, start=1):
        clock, delay = scheduled[index]
        # Any event that fired at this clock stands for the parent: the
        # replay keeps equal times equal, so they recompute alike.
        parent = slot_of.get(clock)
        if parent is None:
            return None
        events.append((parent, delay))
        ties.append(times[position] == times[position - 1])

    plan = executor.plan.assignments
    workflow = executor.workflow_id
    order = graph.topological_order()
    positions = {task.task_id: index for index, task in enumerate(order)}

    def lane_of(assignment: PlanAssignment) -> Optional[int]:
        for index, planned in enumerate(plan.get(assignment.interface, ())):
            if planned is assignment:
                return index
        return None

    ops = []
    held: Dict[str, int] = {}
    prefix = f"{workflow}:"
    pool_changes = iter(journal)
    for time, kind, allocation in rows:
        slot = slot_of.get(time)
        if slot is None:
            return None
        owner = allocation.owner
        if owner.startswith(MODEL_OWNER_PREFIX):
            change = next(pool_changes, None)
            if kind == "allocate" and isinstance(change, PlanAssignment):
                lane = lane_of(change)
                if lane is None:
                    return None
                ops.append((slot, _DEPLOY, change.interface.value, lane))
            elif kind == "release" and isinstance(change, tuple):
                ops.append((slot, _EVICT, change[0], change[1]))
            else:
                return None
        elif kind == "allocate" and owner.startswith(prefix) and not allocation.gpu_ids:
            position = positions.get(owner[len(prefix):])
            if position is None:
                return None
            held[allocation.allocation_id] = len(ops)
            ops.append((slot, _ALLOCATE, position, allocation.node_id, allocation.cpu_cores))
        elif kind == "release" and allocation.allocation_id in held:
            ops.append((slot, _RELEASE, held.pop(allocation.allocation_id)))
        else:
            return None
    if next(pool_changes, None) is not None or held:
        return None

    intervals = executor.trace.intervals[1:]
    completions = executor._dataflow.completions
    if len(intervals) != len(order) or len(completions) != len(order):
        return None
    library = executor.library
    done = []
    for interval, (task, implementation, assignment) in zip(intervals, completions):
        lane = lane_of(assignment)
        start = slot_of.get(interval.start)
        end = slot_of.get(interval.end)
        if (
            lane is None
            or start is None
            or end is None
            or interval.task_id != task.task_id
            or interval.task_name != task.description
            or interval.category != display_category(task.interface)
            or interval.metadata
            != {"agent": assignment.agent_name, "stage": task.stage, "workflow": workflow}
            or implementation is not library.get(assignment.agent_name)
            or task.state is not TaskState.COMPLETED
            or task.started_at != interval.start
            or task.finished_at != interval.end
            or task.retries
        ):
            return None
        done.append(
            (
                positions[task.task_id],
                start,
                end,
                lane,
                interval.node_id,
                interval.gpu_ids,
                interval.cpu_cores,
                interval.gpu_utilization,
                interval.cpu_utilization,
            )
        )
    started = slot_of.get(executor.started_at)
    if started is None or executor.finished_at != times[-1]:
        return None
    return (tuple(events), tuple(ties), tuple(ops), tuple(done), started)


def _replay(
    schedule: tuple,
    runtime: "MurakkabRuntime",
    executor: WorkflowExecutor,
    graph: "TaskGraph",
    pool: ServerPool,
) -> bool:
    """Apply ``schedule`` at the engine's clock; ``False`` (nothing
    applied) when its recomputed times break the recorded order or ties."""
    events, ties, ops, done, started = schedule
    engine = runtime.engine
    previous = engine.now
    times = [previous]
    for (parent, delay), tie in zip(events, ties):
        time = times[parent] + delay
        if (time == previous) is not tie or time < previous:
            return False
        times.append(time)
        previous = time

    manager = runtime.cluster_manager
    assignments = executor.plan.assignments
    workflow = executor.workflow_id
    order = graph.topological_order()
    granted: list = [None] * len(ops)
    for index, op in enumerate(ops):
        kind = op[1]
        engine.fast_forward(times[op[0]])
        if kind == _ALLOCATE:
            owner = f"{workflow}:{order[op[2]].task_id}"
            granted[index] = manager.claim(ResourceRequest(owner, cpu_cores=op[4]), op[3])
        elif kind == _RELEASE:
            manager.release(granted[op[2]])
        elif kind == _DEPLOY:
            pool.deploy(assignments[_INTERFACES[op[2]]][op[3]])
        else:
            pool.evict((op[2], op[3]))

    library = executor.library
    trace_record = executor.trace.record
    positions = {task.task_id: index for index, task in enumerate(order)}
    dataflow = executor.dataflow_class(graph, library, workflow, positions)
    completed = TaskState.COMPLETED
    lanes: Dict[tuple, tuple] = {}
    for position, start, end, lane, node_id, gpu_ids, cores, gpu_use, cpu_use in done:
        task = order[position]
        interface = task.interface
        resolved = lanes.get((interface, lane))
        if resolved is None:
            assignment = assignments[interface][lane]
            resolved = lanes[interface, lane] = (
                assignment,
                library.get(assignment.agent_name),
                display_category(interface),
            )
        assignment, implementation, category = resolved
        task.started_at = start = times[start]
        task.finished_at = end = times[end]
        task.state = completed
        trace_record(
            TraceInterval(
                task.task_id,
                task.description,
                category,
                start,
                end,
                node_id,
                gpu_ids,
                cores,
                gpu_use,
                cpu_use,
                {"agent": assignment.agent_name, "stage": task.stage, "workflow": workflow},
            )
        )
        dataflow.record(task, implementation, assignment)
    engine.fast_forward(times[-1], len(events))
    executor.finish_replayed(graph, dataflow, times[started])
    return True


_SHARED_SCHEDULES = _ScheduleMemo()


def run_submission(
    runtime: "MurakkabRuntime",
    executor: WorkflowExecutor,
    graph: "TaskGraph",
    delay: float,
    pool: ServerPool,
) -> None:
    """Run a single submission's ``executor`` on ``graph`` after ``delay``,
    through the process-wide schedule memo."""
    _SHARED_SCHEDULES.execute(runtime, executor, graph, delay, pool)


def schedule_memo_info() -> Dict[str, int]:
    """Counters of the process-wide schedule memo: submissions simulated
    ``fresh`` (ineligible, or on a refused key), first sightings stored as
    ``candidates``, keys ``confirmed`` or ``refused`` (including runs that
    could not be recorded), ``replayed`` submissions, and ``fallbacks`` to
    simulation when recomputed times broke the recorded order; plus the
    ``entries`` held and their ``bytes``."""
    return _SHARED_SCHEDULES.info()


def clear_schedule_memo() -> None:
    """Empty the process-wide schedule memo and reset its counters."""
    _SHARED_SCHEDULES.clear()
