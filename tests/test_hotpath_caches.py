"""Tests for the orchestration hot-path caches and indexes.

Covers the memoized default profile store, the planner's plan cache and its
invalidation triggers, the tuple-heap event queue (determinism, cancellation,
compaction, counter reset), the allocator's owner/generation indexes, and the
differential guarantee that the optimized path is both much faster than and
byte-identical to the unoptimized reference path.
"""

import time

import pytest

from repro.agents.base import AgentInterface, ExecutionMode, HardwareConfig
from repro.agents.library import AgentLibrary, default_library
from repro.agents.profiles import ExecutionProfile, ProfileKey
from repro.agents.sentiment import DistilBertSentiment
from test_decomposer_templates import _result_view

from repro.baselines.unoptimized import RescanWorkflowExecutor, unoptimized_runtime
from repro.cluster.allocator import Allocator, ResourceRequest
from repro.cluster.cluster import Cluster
from repro.cluster.hardware import GpuGeneration
from repro.cluster.node import Node
from repro.core.constraints import MIN_COST, ConstraintSet
from repro.core.execution import ExecutionError, WorkflowExecutor
from repro.core.multitenant import TenantSubmission, run_submissions
from repro.core.planner import ConfigurationPlanner
from repro.core.runtime import MurakkabRuntime
from repro.core.task import Task
from repro.core.dag import TaskGraph
from repro.loadgen import default_registry
from repro.profiling.profiler import (
    Profiler,
    clear_default_profile_store_cache,
    default_profile_store,
)
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventQueue
from repro.workflows.video_understanding import video_understanding_job
from repro.workloads.video import generate_videos


# --------------------------------------------------------------------- #
# Memoized default profile store
# --------------------------------------------------------------------- #
def test_default_profile_store_reuses_profiling_work():
    clear_default_profile_store_cache()
    library = default_library()
    first = default_profile_store(library)
    second = default_profile_store(library)
    assert first is not second
    assert len(first) == len(second) == len(Profiler().profile_library(library))
    assert {p.key for p in first.all_profiles()} == {p.key for p in second.all_profiles()}


def test_default_profile_store_isolates_mutations():
    clear_default_profile_store_cache()
    library = default_library()
    first = default_profile_store(library)
    removed = first.remove_agent("whisper")
    assert removed > 0
    # The cached master store must be unaffected by mutating a copy.
    second = default_profile_store(library)
    assert any(p.agent_name == "whisper" for p in second.all_profiles())


def test_default_profile_store_tracks_library_mutation():
    clear_default_profile_store_cache()
    library = AgentLibrary([DistilBertSentiment()])
    store = default_profile_store(library)
    assert all(p.interface is AgentInterface.SENTIMENT_ANALYSIS for p in store.all_profiles())

    from repro.agents.calculator import CalculatorTool

    library.register(CalculatorTool())
    updated = default_profile_store(library)
    assert any(p.interface is AgentInterface.CALCULATION for p in updated.all_profiles())
    # Unregistering restores the original fingerprint (and its cached store).
    library.unregister("calculator")
    again = default_profile_store(library)
    assert {p.key for p in again.all_profiles()} == {p.key for p in store.all_profiles()}


# --------------------------------------------------------------------- #
# Profile store indexes
# --------------------------------------------------------------------- #
@pytest.fixture()
def stt_store():
    library = default_library()
    return Profiler().profile_library(library)


def test_store_rank_matches_brute_force(stt_store):
    interface = AgentInterface.SPEECH_TO_TEXT
    objective = "cost"
    expected = sorted(
        [p for p in stt_store.profiles_for(interface) if p.quality >= 0.9],
        key=lambda p: (p.objective_value(objective), -p.quality, p.latency_s, p.energy_wh),
    )
    assert stt_store.rank(interface, objective, quality_floor=0.9) == expected


def test_store_index_updates_on_add_and_remove(stt_store):
    interface = AgentInterface.SPEECH_TO_TEXT
    baseline = stt_store.rank(interface, "cost")  # builds the index
    cheap = ExecutionProfile(
        key=ProfileKey(
            agent_name="bargain-stt",
            config=HardwareConfig(cpu_cores=1),
            mode=ExecutionMode(),
        ),
        interface=interface,
        latency_s=0.5,
        power_w=1.0,
        energy_wh=0.001,
        cost=0.0,
        quality=0.95,
    )
    version_before = stt_store.version
    stt_store.add(cheap)
    assert stt_store.version > version_before
    ranked = stt_store.rank(interface, "cost")
    assert ranked[0] is cheap
    assert len(ranked) == len(baseline) + 1

    stt_store.remove_agent("bargain-stt")
    assert stt_store.rank(interface, "cost") == baseline


def test_store_pareto_front_cached_and_invalidated(stt_store):
    interface = AgentInterface.SPEECH_TO_TEXT
    front = stt_store.pareto_front(interface)
    assert front and stt_store.pareto_front(interface) == front
    dominating = ExecutionProfile(
        key=ProfileKey(
            agent_name="dominator",
            config=HardwareConfig(cpu_cores=1),
            mode=ExecutionMode(),
        ),
        interface=interface,
        latency_s=0.0,
        power_w=0.0,
        energy_wh=0.0,
        cost=0.0,
        quality=1.0,
    )
    stt_store.add(dominating)
    assert stt_store.pareto_front(interface) == [dominating]


# --------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------- #
def _plan_once(planner, graph, constraints):
    return planner.plan(graph, constraints)


def _single_interface_graph(interface=AgentInterface.SENTIMENT_ANALYSIS):
    from repro.agents.base import WorkUnit

    graph = TaskGraph(workflow_id="plan-cache")
    graph.add_task(
        Task(task_id="t0", interface=interface, description="t0", work=WorkUnit(kind="item"))
    )
    return graph


def test_plan_cache_hits_on_repeat_and_invalidates_on_store_change():
    library = default_library()
    store = Profiler().profile_library(library)
    planner = ConfigurationPlanner(store, library)
    graph = _single_interface_graph()
    constraints = ConstraintSet((MIN_COST,), quality_floor=0.0)

    first = _plan_once(planner, graph, constraints)
    assert planner.plan_cache_info["misses"] == 1
    second = _plan_once(planner, graph, constraints)
    assert planner.plan_cache_info["hits"] == 1
    assert (
        second.primary_assignment(AgentInterface.SENTIMENT_ANALYSIS)
        is first.primary_assignment(AgentInterface.SENTIMENT_ANALYSIS)
    )

    # Adding a strictly cheaper profile must invalidate the cache and win.
    free = ExecutionProfile(
        key=ProfileKey(
            agent_name="free-sentiment",
            config=HardwareConfig(cpu_cores=1),
            mode=ExecutionMode(),
        ),
        interface=AgentInterface.SENTIMENT_ANALYSIS,
        latency_s=0.001,
        power_w=0.0,
        energy_wh=0.0,
        cost=0.0,
        quality=1.0,
    )
    store.add(free)
    replanned = _plan_once(planner, graph, constraints)
    assert (
        replanned.primary_assignment(AgentInterface.SENTIMENT_ANALYSIS).agent_name
        == "free-sentiment"
    )

    # Removing it must invalidate again and restore the original choice.
    store.remove_agent("free-sentiment")
    restored = _plan_once(planner, graph, constraints)
    assert (
        restored.primary_assignment(AgentInterface.SENTIMENT_ANALYSIS).agent_name
        == first.primary_assignment(AgentInterface.SENTIMENT_ANALYSIS).agent_name
    )


def test_plan_cache_distinguishes_cluster_snapshots():
    runtime = MurakkabRuntime()
    planner = runtime.orchestrator.planner
    graph = _single_interface_graph(AgentInterface.SCENE_SUMMARIZATION)
    constraints = ConstraintSet((MIN_COST,), quality_floor=0.0)

    idle_stats = runtime.cluster_manager.stats()
    plan_idle = planner.plan(graph, constraints, cluster_stats=idle_stats)

    # Warm up a competing implementation: the warm-preference pass reads the
    # set of running agents from the stats, so the digest must change.
    runtime.cluster_manager.deploy_model("nvlm-72b", gpus=8)
    warm_stats = runtime.cluster_manager.stats()
    assert idle_stats.planning_digest() != warm_stats.planning_digest()
    misses_before = planner.plan_cache_info["misses"]
    planner.plan(graph, constraints, cluster_stats=warm_stats)
    assert planner.plan_cache_info["misses"] == misses_before + 1

    # Equal digests hit the cache even for a fresh (equal) snapshot object.
    hits_before = planner.plan_cache_info["hits"]
    plan_again = planner.plan(graph, constraints, cluster_stats=runtime.cluster_manager.stats())
    assert planner.plan_cache_info["hits"] == hits_before + 1
    assert plan_again.describe()

    # Disabling the cache still produces the same plan.
    planner.enable_plan_cache = False
    uncached = planner.plan(graph, constraints, cluster_stats=idle_stats)
    assert uncached.describe() == plan_idle.describe()


# --------------------------------------------------------------------- #
# Tuple-heap event queue
# --------------------------------------------------------------------- #
def test_queue_same_timestamp_fifo_across_many_events():
    queue = EventQueue()
    order = []
    for i in range(100):
        queue.push(1.0, order.append, i)
    while queue:
        event = queue.pop()
        if event is None:
            break
        event.fire()
    assert order == list(range(100))


def test_queue_clear_resets_sequence_counter():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    assert first.sequence == 0
    queue.clear()
    after = queue.push(1.0, lambda: None)
    assert after.sequence == 0


def test_queue_cancel_after_clear_does_not_corrupt_counters():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.clear()
    event.cancel()  # stale handle: must not touch the emptied queue
    assert queue.live_count == 0
    assert queue.cancelled_count == 0


def test_queue_compacts_when_mostly_cancelled():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    # Compaction is amortized: it fires once cancelled entries exceed half
    # the heap, so the heap must have shrunk well below the 200 pushed while
    # the live view and pop order stay exact.
    assert len(queue) < 200 - 50
    assert queue.live_count == 50
    times = []
    while queue:
        event = queue.pop()
        if event is None:
            break
        times.append(event.time)
    assert times == [float(i) for i in range(150, 200)]


def test_queue_cancelled_count_tracks_pop_skips():
    queue = EventQueue()
    keep = queue.push(2.0, lambda: None)
    drop = queue.push(1.0, lambda: None)
    drop.cancel()
    assert queue.live_count == 1
    assert queue.pop() is keep
    assert queue.cancelled_count == 0


def test_engine_schedule_matches_queue_push():
    # SimulationEngine.schedule inlines EventQueue.push for speed; the two
    # must produce indistinguishable events and heap bookkeeping.
    engine = SimulationEngine()
    via_schedule = engine.schedule(1.5, lambda: None, 1, key="v")
    via_push = engine._queue.push(1.5, lambda: None, 1, key="v")
    assert (via_schedule.time, via_schedule.args, via_schedule.kwargs) == (
        via_push.time,
        via_push.args,
        via_push.kwargs,
    )
    assert via_push.sequence == via_schedule.sequence + 1
    assert via_schedule._queue is via_push._queue is engine._queue
    assert engine._queue.live_count == 2
    heap_events = [entry[2] for entry in engine._queue._heap]
    assert heap_events == [via_schedule, via_push]
    assert [entry[:2] for entry in engine._queue._heap] == [
        (via_schedule.time, via_schedule.sequence),
        (via_push.time, via_push.sequence),
    ]


def test_engine_run_survives_mid_run_compaction():
    # A callback that cancels most of the queue triggers compaction while
    # the engine's run loop is iterating the heap; the loop must keep seeing
    # the live events (the queue compacts in place).
    engine = SimulationEngine()
    fired = []
    victims = [engine.schedule(5.0 + i * 1e-3, fired.append, f"victim{i}") for i in range(200)]
    engine.schedule(1.0, lambda: [v.cancel() for v in victims])
    engine.schedule(2.0, fired.append, "survivor-early")
    engine.schedule(9.0, fired.append, "survivor-late")
    engine.run()
    assert fired == ["survivor-early", "survivor-late"]
    assert engine.now == 9.0
    assert engine.pending_events == 0


def test_engine_pending_events_excludes_cancelled():
    engine = SimulationEngine()
    keep = engine.schedule(1.0, lambda: None)
    drop = engine.schedule(2.0, lambda: None)
    engine.cancel(drop)
    assert engine.pending_events == 1
    assert keep.cancelled is False


def test_engine_deterministic_ordering_matches_unoptimized_loop():
    def drive(engine):
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(1.0, fired.append, "b")
        tail = engine.schedule(2.0, fired.append, "cancelled")
        engine.schedule(2.0, fired.append, "c")
        engine.cancel(tail)
        engine.schedule(0.5, lambda: engine.schedule(0.25, fired.append, "nested"))
        engine.run()
        return fired, engine.now

    optimized = drive(SimulationEngine())

    legacy_engine = SimulationEngine()
    fired = []
    legacy_engine.schedule(1.0, fired.append, "a")
    legacy_engine.schedule(1.0, fired.append, "b")
    tail = legacy_engine.schedule(2.0, fired.append, "cancelled")
    legacy_engine.schedule(2.0, fired.append, "c")
    legacy_engine.cancel(tail)
    legacy_engine.schedule(0.5, lambda: legacy_engine.schedule(0.25, fired.append, "nested"))
    while legacy_engine.step():
        pass
    assert optimized == (fired, legacy_engine.now)
    assert fired == ["nested", "a", "b", "c"]


# --------------------------------------------------------------------- #
# Allocator indexes
# --------------------------------------------------------------------- #
def _mixed_cluster():
    return Cluster(
        [
            Node("a0", 4, 32, gpu_generation=GpuGeneration.A100),
            Node("h0", 4, 32, gpu_generation=GpuGeneration.H100),
            Node("a1", 4, 32, gpu_generation=GpuGeneration.A100),
        ]
    )


def test_allocator_generation_buckets_stay_in_sync():
    allocator = Allocator(_mixed_cluster())
    held = [
        allocator.allocate(ResourceRequest(owner=f"wf{i}", gpus=2, gpu_generation=GpuGeneration.A100))
        for i in range(3)
    ]
    assert all(held)
    assert allocator._free_gpus_by_generation[GpuGeneration.A100] == 2
    # A 4-GPU A100 request no longer fits on any single node.
    assert not allocator.can_satisfy(
        ResourceRequest(owner="big", gpus=4, gpu_generation=GpuGeneration.A100)
    )
    # H100s are untouched.
    assert allocator.can_satisfy(
        ResourceRequest(owner="h", gpus=4, gpu_generation=GpuGeneration.H100)
    )
    for allocation in held:
        allocator.release(allocation)
    assert allocator._free_gpus_by_generation[GpuGeneration.A100] == 8
    assert allocator.allocate(
        ResourceRequest(owner="big", gpus=4, gpu_generation=GpuGeneration.A100)
    )


def test_allocator_buckets_follow_cluster_scale_out():
    cluster = Cluster([Node("a0", 2, 8, gpu_generation=GpuGeneration.A100)])
    allocator = Allocator(cluster)
    assert not allocator.can_satisfy(
        ResourceRequest(owner="x", gpus=1, gpu_generation=GpuGeneration.H100)
    )
    # Scale-out after the allocator exists (spot capacity / scale-up path):
    # a node of a brand-new generation must become allocatable.
    cluster.add_node(Node("h0", 2, 8, gpu_generation=GpuGeneration.H100))
    allocation = allocator.allocate(
        ResourceRequest(owner="x", gpus=2, gpu_generation=GpuGeneration.H100)
    )
    assert allocation is not None and allocation.node_id == "h0"
    allocator.release(allocation)
    # Scale-in is reflected too once the node drains.
    cluster.remove_node("h0")
    assert not allocator.can_satisfy(
        ResourceRequest(owner="x", gpus=1, gpu_generation=GpuGeneration.H100)
    )


def test_allocator_owner_index_matches_scan():
    allocator = Allocator(_mixed_cluster())
    for i in range(4):
        allocator.allocate(ResourceRequest(owner="alpha", cpu_cores=2))
        allocator.allocate(ResourceRequest(owner="beta", cpu_cores=2))
    by_scan = [a for a in allocator.active_allocations() if a.owner == "alpha"]
    assert allocator.allocations_for("alpha") == by_scan
    released = allocator.release_owner("alpha")
    assert released == 4
    assert allocator.allocations_for("alpha") == []
    assert len(allocator.allocations_for("beta")) == 4
    assert allocator.release_owner("alpha") == 0


def test_node_claims_lowest_free_devices_after_churn():
    node = Node("n", 4, 8)
    first = node.claim_gpus(2, "x")
    assert [g.device_id for g in first] == ["n/gpu0", "n/gpu1"]
    node.release_gpus(["n/gpu0"], "x")
    second = node.claim_gpus(2, "y")
    # Lowest free indices first: the just-released gpu0 then gpu2.
    assert [g.device_id for g in second] == ["n/gpu0", "n/gpu2"]
    assert node.free_gpu_count == 1
    assert node.free_cpu_cores == 8


def test_plan_cache_respects_cpu_budget_changes():
    runtime = MurakkabRuntime()
    planner = runtime.orchestrator.planner
    graph = _single_interface_graph(AgentInterface.SPEECH_TO_TEXT)
    constraints = ConstraintSet((MIN_COST,), quality_floor=0.0)
    first = planner.plan(graph, constraints).primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    planner.max_cpu_cores_per_agent = max(2, first.config.cpu_cores)
    shrunk = planner.plan(graph, constraints).primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    # Same profile, but the per-task CPU lane budget (and therefore the
    # concurrency) must reflect the new limit, not the cached one.
    assert shrunk.profile == first.profile
    assert shrunk.max_concurrency == max(
        1, planner.max_cpu_cores_per_agent // shrunk.config.cpu_cores
    )
    assert shrunk.max_concurrency != first.max_concurrency


def test_incremental_executor_handles_pre_completed_tasks():
    from repro.agents.base import WorkUnit
    from repro.cluster.cluster import paper_testbed
    from repro.cluster.manager import ClusterManager
    from repro.core.execution import WorkflowExecutor
    from repro.core.task import TaskState
    from repro.profiling.profiler import Profiler
    from repro.sim.engine import SimulationEngine

    library = default_library()
    store = Profiler().profile_library(library)
    planner = ConfigurationPlanner(store, library)

    graph = TaskGraph(workflow_id="partial")
    done = Task(
        task_id="t0",
        interface=AgentInterface.SENTIMENT_ANALYSIS,
        description="already done",
        work=WorkUnit(kind="item"),
    )
    todo = Task(
        task_id="t1",
        interface=AgentInterface.SENTIMENT_ANALYSIS,
        description="remaining",
        work=WorkUnit(kind="item", payload={"texts": ["fine"]}),
    )
    graph.add_task(done)
    graph.add_task(todo)
    graph.add_dependency("t0", "t1")
    done.mark(TaskState.READY)
    done.mark(TaskState.RUNNING)
    done.mark(TaskState.COMPLETED)

    engine = SimulationEngine()
    manager = ClusterManager(paper_testbed(), time_source=lambda: engine.now)
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.0))
    executor = WorkflowExecutor(
        engine=engine,
        cluster_manager=manager,
        library=library,
        plan=plan,
        workflow_id="partial",
    )
    results = executor.execute(graph)
    assert "t1" in results
    assert executor.finished_at is not None


# --------------------------------------------------------------------- #
# Differential: optimized vs unoptimized reference path
# --------------------------------------------------------------------- #
def _trace_tuples(result):
    return [
        (i.task_id, i.start, i.end, i.node_id, tuple(i.gpu_ids), i.cpu_cores)
        for i in result.trace
    ]


def test_optimized_path_is_byte_identical_to_unoptimized():
    videos = generate_videos(count=2)
    job = video_understanding_job(videos=videos, job_id="differential")
    optimized = MurakkabRuntime().submit(job)
    reference = unoptimized_runtime().submit(job)
    assert optimized.plan.describe() == reference.plan.describe()
    assert optimized.makespan_s == reference.makespan_s
    assert optimized.quality == reference.quality
    assert optimized.cost == pytest.approx(reference.cost)
    assert _trace_tuples(optimized) == _trace_tuples(reference)
    assert optimized.output == reference.output


#: Five overlapping arrivals over every registered workload: the jobs share
#: serving instances and CPU lanes, so dispatch order matters throughout.
_OVERLAPPING = (
    (0.0, "video-understanding"),
    (0.5, "newsfeed"),
    (1.0, "chain-of-thought"),
    (1.5, "document-qa"),
    (2.0, "newsfeed"),
)


def _overlapping_submissions():
    registry = default_registry()
    return [
        TenantSubmission(at, registry.build(workload, f"multi-{index}-{workload}"))
        for index, (at, workload) in enumerate(_OVERLAPPING)
    ]


@pytest.mark.parametrize("collect_traces", [False, True], ids=["streaming", "traces"])
def test_multi_job_serving_is_byte_identical_to_unoptimized(collect_traces):
    """The reference oracle drives the multi-job coordinator too: every job
    launched by run_submissions goes through the runtime's executor class."""
    runs = []
    for runtime in (MurakkabRuntime(), unoptimized_runtime()):
        streamed = []
        report = run_submissions(
            runtime,
            _overlapping_submissions(),
            collect_traces=collect_traces,
            on_result=streamed.append,
        )
        assert report.completed_jobs == len(_OVERLAPPING)
        if collect_traces:
            assert [r.job_id for r in streamed] == list(report.job_results)
        runs.append(({r.job_id: _result_view(r) for r in streamed}, report))
    (optimized, optimized_report), (reference, reference_report) = runs
    assert optimized == reference
    assert optimized_report.job_summaries == reference_report.job_summaries
    assert optimized_report.total_energy == reference_report.total_energy
    assert optimized_report.batch_makespan_s == reference_report.batch_makespan_s


@pytest.mark.parametrize("executor_class", [WorkflowExecutor, RescanWorkflowExecutor])
def test_cancelled_predecessor_deadlocks(executor_class):
    from repro.agents.base import WorkUnit
    from repro.cluster.cluster import paper_testbed
    from repro.cluster.manager import ClusterManager
    from repro.core.task import TaskState

    library = default_library()
    planner = ConfigurationPlanner(Profiler().profile_library(library), library)
    graph = TaskGraph(workflow_id="stuck")
    for task_id in ("t0", "t1"):
        graph.add_task(
            Task(
                task_id=task_id,
                interface=AgentInterface.SENTIMENT_ANALYSIS,
                description=task_id,
                work=WorkUnit(kind="item", payload={"texts": ["fine"]}),
            )
        )
    graph.add_dependency("t0", "t1")
    graph.task("t0").mark(TaskState.CANCELLED)

    engine = SimulationEngine()
    executor = executor_class(
        engine=engine,
        cluster_manager=ClusterManager(paper_testbed(), time_source=lambda: engine.now),
        library=library,
        plan=planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.0)),
        workflow_id="stuck",
    )
    with pytest.raises(ExecutionError, match="deadlocked") as caught:
        executor.execute(graph)
    assert caught.value.executor is executor


def test_repeated_submission_speedup_at_least_5x():
    videos = generate_videos(count=4)

    def submit_optimized():
        return MurakkabRuntime().submit(
            video_understanding_job(videos=videos, job_id="speedup")
        )

    def submit_unoptimized():
        return unoptimized_runtime().submit(
            video_understanding_job(videos=videos, job_id="speedup")
        )

    # Warm-up: the first optimized construction pays the one-time profiling
    # cost; second-and-later constructions are what the claim covers.
    warm_result = submit_optimized()
    cold_result = submit_unoptimized()
    assert warm_result.plan.describe() == cold_result.plan.describe()
    assert _trace_tuples(warm_result) == _trace_tuples(cold_result)

    def best_of(fn, rounds=3):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return min(samples)

    optimized_s = best_of(submit_optimized)
    unoptimized_s = best_of(submit_unoptimized)
    speedup = unoptimized_s / optimized_s
    # Measured ~12x on the development machine; 5x leaves headroom for noise.
    assert speedup >= 5.0, (
        f"optimized {optimized_s * 1e3:.1f} ms vs unoptimized "
        f"{unoptimized_s * 1e3:.1f} ms -> only {speedup:.1f}x"
    )
