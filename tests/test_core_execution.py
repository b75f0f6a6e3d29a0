"""Unit tests for the workflow executor, server pool, and baseline semantics."""

import pytest

from repro.agents.base import AgentInterface
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.manager import ClusterManager
from repro.cluster.node import Node
from repro.core.constraints import ConstraintSet, MIN_COST
from repro.core.decomposer import JobDecomposer
from repro.core.execution import (
    DISPLAY_CATEGORIES,
    ExecutionError,
    ServerPool,
    WorkflowExecutor,
    display_category,
)
from repro.core.planner import ConfigurationPlanner
from repro.core.task import TaskState
from repro.sim.engine import SimulationEngine
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec

QUALITY_FLOOR = 0.93


def _environment(library, cluster=None):
    engine = SimulationEngine()
    cluster = cluster or paper_testbed()
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    return engine, cluster, manager


def _plan_and_graph(library, profile_store, videos, job_id):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id=job_id)
    graph, _ = JobDecomposer().decompose(job)
    planner = ConfigurationPlanner(profile_store, library)
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    return graph, plan


def test_display_categories_match_figure3_labels():
    assert display_category(AgentInterface.SCENE_SUMMARIZATION) == "LLM (Text)"
    assert display_category(AgentInterface.SPEECH_TO_TEXT) == "Speech-to-Text"
    assert display_category(AgentInterface.EMBEDDING) == "LLM (Embeddings)"
    assert display_category(AgentInterface.OBJECT_DETECTION) == "Object Detection"
    assert AgentInterface.CALCULATION in DISPLAY_CATEGORIES


def test_server_pool_shares_instances_per_group(library):
    engine, _, manager = _environment(library)
    from repro.agents.base import HardwareConfig
    from repro.core.planner import PlanAssignment
    from repro.profiling.profiler import Profiler

    profiler = Profiler()
    summarize = PlanAssignment(
        interface=AgentInterface.SCENE_SUMMARIZATION,
        agent_name="nvlm-summarizer",
        config=HardwareConfig(gpus=8),
        mode=library.get("nvlm-summarizer").supported_modes()[1],
        profile=profiler.profile_one(
            library.get("nvlm-summarizer"), HardwareConfig(gpus=8),
            library.get("nvlm-summarizer").supported_modes()[1],
        ),
    )
    answer = PlanAssignment(
        interface=AgentInterface.QUESTION_ANSWERING,
        agent_name="nvlm-answerer",
        config=HardwareConfig(gpus=8),
        mode=library.get("nvlm-answerer").supported_modes()[0],
        profile=profiler.profile_one(
            library.get("nvlm-answerer"), HardwareConfig(gpus=8),
            library.get("nvlm-answerer").supported_modes()[0],
        ),
    )
    pool = ServerPool(manager, library)
    first = pool.ensure(summarize)
    second = pool.ensure(answer)
    assert first is second  # same NVLM server serves both request types
    assert pool.total_gpus() == 8
    pool.teardown_all()
    assert manager.cluster.free_gpus == manager.cluster.total_gpus


def test_executor_completes_workflow_and_records_trace(library, profile_store, videos):
    engine, cluster, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-basic")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-basic")
    results = executor.execute(graph)
    assert graph.is_complete()
    assert set(results) == {task.task_id for task in graph}
    assert len(executor.trace) == len(graph)
    assert executor.makespan > 0
    answer_task = graph.tasks_by_interface(AgentInterface.QUESTION_ANSWERING)[0]
    assert "answer" in results[answer_task.task_id].output


def test_executor_respects_dependencies_in_time(library, profile_store, videos):
    engine, cluster, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-deps")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-deps")
    executor.execute(graph)
    for upstream, downstream in graph.edges():
        assert graph.task(upstream).finished_at <= graph.task(downstream).started_at + 1e-9


def test_parallel_execution_is_faster_than_sequential(library, profile_store, videos):
    engine_a, _, manager_a = _environment(library)
    graph_a, plan = _plan_and_graph(library, profile_store, videos, "exec-par")
    parallel = WorkflowExecutor(engine_a, manager_a, library, plan, workflow_id="exec-par")
    parallel.execute(graph_a)

    engine_b, _, manager_b = _environment(library)
    graph_b, plan_b = _plan_and_graph(library, profile_store, videos, "exec-seq")
    sequential = WorkflowExecutor(
        engine_b, manager_b, library, plan_b, sequential=True, workflow_id="exec-seq"
    )
    sequential.execute(graph_b)
    assert parallel.makespan < sequential.makespan


def test_sequential_mode_runs_one_task_at_a_time(library, profile_store, videos):
    engine, _, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-one")
    executor = WorkflowExecutor(
        engine, manager, library, plan, sequential=True, workflow_id="exec-one"
    )
    executor.execute(graph)
    intervals = sorted(executor.trace, key=lambda i: i.start)
    for earlier, later in zip(intervals, intervals[1:]):
        assert later.start >= earlier.end - 1e-9


def test_executor_releases_all_resources(library, profile_store, videos):
    engine, cluster, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-release")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-release")
    executor.execute(graph)
    executor.server_pool.teardown_all()
    assert cluster.free_gpus == cluster.total_gpus
    assert cluster.free_cpu_cores == cluster.total_cpu_cores


def test_executor_announces_and_retracts_workflow(library, profile_store, videos):
    engine, _, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-announce")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-announce")
    executor.start(graph)
    assert manager.aggregate_upcoming_demand()  # DAG visibility before running
    engine.run()
    assert manager.aggregate_upcoming_demand() == {}  # retracted on completion


def test_executor_data_flow_produces_answer_with_ground_truth_objects(
    library, profile_store, videos
):
    engine, _, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-answer")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-answer")
    results = executor.execute(graph)
    answer_task = graph.tasks_by_interface(AgentInterface.QUESTION_ANSWERING)[0]
    answer = results[answer_task.task_id].output["answer"]
    ground_truth = {obj for video in videos for scene in video.scenes for obj in scene.objects}
    assert any(obj in answer for obj in ground_truth)


def test_executor_raises_when_cluster_cannot_ever_fit(library, profile_store, videos):
    # Enough GPUs for every serving instance, but too few CPU cores to ever
    # run the 16-core Speech-to-Text lanes the MIN_COST plan asks for.
    tiny = Cluster([Node("tiny", gpu_count=16, cpu_cores=8)])
    engine = SimulationEngine()
    manager = ClusterManager(tiny, time_source=lambda: engine.now)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-tiny")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-tiny")
    with pytest.raises(ExecutionError):
        executor.execute(graph)


def test_executor_small_cluster_insufficient_gpus_raises(library, profile_store, videos):
    no_gpus = Cluster([Node("cpuonly", gpu_count=0, cpu_cores=192)])
    engine = SimulationEngine()
    manager = ClusterManager(no_gpus, time_source=lambda: engine.now)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-nogpu")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-nogpu")
    with pytest.raises(RuntimeError):
        executor.execute(graph)


def test_all_tasks_reach_completed_state(library, profile_store, videos):
    engine, _, manager = _environment(library)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-states")
    WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-states").execute(graph)
    assert all(task.state is TaskState.COMPLETED for task in graph)


def _cpu_chain(library, profile_store, length, workflow_id):
    """A chain of CPU-only sentiment tasks: each one allocates on dispatch."""
    from repro.agents.base import WorkUnit
    from repro.core.dag import TaskGraph
    from repro.core.task import Task

    graph = TaskGraph(workflow_id)
    for index in range(length):
        graph.add_task(
            Task(
                task_id=f"{workflow_id}/sentiment/{index}",
                description=f"post {index}",
                interface=AgentInterface.SENTIMENT_ANALYSIS,
                work=WorkUnit(kind="item", payload={"texts": ["fine"]}),
            )
        )
        if index:
            graph.add_dependency(
                f"{workflow_id}/sentiment/{index - 1}", f"{workflow_id}/sentiment/{index}"
            )
    plan = ConfigurationPlanner(profile_store, library).plan(
        graph, ConstraintSet((MIN_COST,), quality_floor=0.0)
    )
    assert not any(a.uses_gpu for a in plan.assignments_for(AgentInterface.SENTIMENT_ANALYSIS))
    return graph, plan


def test_allocation_retry_limit_counts_consecutive_retries(
    library, profile_store, monkeypatch
):
    # Every task is refused twice before it gets its cores: ten retries in
    # total, never more than two in a row, against a limit of three.
    monkeypatch.setattr(WorkflowExecutor, "MAX_ALLOCATION_RETRIES", 3)
    engine, _, manager = _environment(library)
    graph, plan = _cpu_chain(library, profile_store, 5, "exec-flaky")
    refusals = {}
    allocate = manager.allocate

    def flaky_allocate(request):
        refusals[request.owner] = refusals.get(request.owner, 0) + 1
        return allocate(request) if refusals[request.owner] > 2 else None

    monkeypatch.setattr(manager, "allocate", flaky_allocate)
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-flaky")
    executor.execute(graph)
    assert all(task.state is TaskState.COMPLETED for task in graph)
    assert sum(refusals.values()) == 15


def test_allocation_retry_limit_still_stops_unrunnable_workflow(
    library, profile_store, monkeypatch
):
    monkeypatch.setattr(WorkflowExecutor, "MAX_ALLOCATION_RETRIES", 3)
    engine, _, manager = _environment(library)
    graph, plan = _cpu_chain(library, profile_store, 2, "exec-stuck")
    attempts = []
    monkeypatch.setattr(manager, "allocate", lambda request: attempts.append(request) or None)
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-stuck")
    with pytest.raises(ExecutionError, match="after 3 retries"):
        executor.execute(graph)
    assert len(attempts) == 4


# --------------------------------------------------------------------- #
# Idle-instance eviction: announced demand first, then key order
# --------------------------------------------------------------------- #


def _gpu_assignment(library, agent_name, gpus=1):
    from repro.agents.base import HardwareConfig
    from repro.core.planner import PlanAssignment
    from repro.profiling.profiler import Profiler

    implementation = library.get(agent_name)
    config = HardwareConfig(gpus=gpus)
    mode = implementation.supported_modes()[0]
    return PlanAssignment(
        interface=implementation.interface,
        agent_name=agent_name,
        config=config,
        mode=mode,
        profile=Profiler().profile_one(implementation, config, mode),
    )


def _full_pool(library, agents):
    """A pool on one 4-GPU node filled with idle one-GPU instances."""
    engine, cluster, manager = _environment(
        library, Cluster([Node("n0", gpu_count=4, cpu_cores=32)])
    )
    pool = ServerPool(manager, library)
    handles = {agent: pool.ensure(_gpu_assignment(library, agent)) for agent in agents}
    assert cluster.free_gpus == 0
    return manager, pool, handles


def _announce(manager, workflow_id, **demand):
    from repro.cluster.telemetry_exchange import WorkflowAnnouncement

    manager.announce_workflow(
        WorkflowAnnouncement(workflow_id=workflow_id, timestamp=0.0, upcoming_demand=demand)
    )


FOUR = ("whisper", "clip", "llama-sentiment", "nvlm-embedder")


def test_evict_idle_prefers_instances_without_announced_demand(library):
    manager, pool, handles = _full_pool(library, FOUR)
    # Clip is first in key order, but a DAG still needs speech-to-text and
    # object detection (which clip's group serves).
    _announce(manager, "other", speech_to_text=2, object_detection=1)
    assert pool.evict_idle_for(_gpu_assignment(library, "llama-textgen"))
    assert [agent for agent in FOUR if handles[agent].dead] == ["llama-sentiment"]
    assert [h.group for h in pool.handles()] == ["whisper", "clip", "nvlm-embedder"]


def test_evict_idle_goes_in_key_order_and_stops_once_it_fits(library):
    manager, pool, handles = _full_pool(library, FOUR)
    # Whisper was deployed first and nvlm-embedder last; neither matters,
    # nor does use: only the (group, config) key orders equals.
    assert pool.ensure(_gpu_assignment(library, "clip")) is handles["clip"]
    assert pool.evict_idle_for(_gpu_assignment(library, "llama-textgen", gpus=2))
    assert [agent for agent in FOUR if handles[agent].dead] == ["clip", "llama-sentiment"]
    assert manager.cluster.free_gpus == 2
    # A request that already fits evicts nothing.
    assert pool.evict_idle_for(_gpu_assignment(library, "llama-textgen", gpus=2))
    assert len(pool.handles()) == 2


def test_evict_idle_keeps_everything_for_a_deployed_or_impossible_shape(library):
    manager, pool, handles = _full_pool(library, FOUR)
    # The assignment's own instance is already up: nothing to make room for.
    assert pool.evict_idle_for(_gpu_assignment(library, "whisper"))
    # No 4-GPU node could ever hold eight GPUs: evicting would only lose
    # warm instances.
    assert not pool.evict_idle_for(_gpu_assignment(library, "llama-textgen", gpus=8))
    assert not any(handle.dead for handle in handles.values())
    assert manager.cluster.free_gpus == 0


def test_evict_idle_never_touches_active_or_dead_instances(library):
    manager, pool, handles = _full_pool(library, FOUR)
    handles["whisper"].active = 1
    handles["clip"].dead = True
    assert not pool.evict_idle_for(_gpu_assignment(library, "llama-textgen", gpus=4))
    assert [h.group for h in pool.handles()] == ["whisper", "clip"]
    assert not handles["whisper"].dead
    # Nothing tore the dead handle's instance down a second time.
    assert manager.instances_for("clip") == [handles["clip"].instance]
    assert manager.cluster.free_gpus == 2


def test_evict_idle_takes_demanded_instances_when_nothing_else_is_idle(library):
    manager, pool, handles = _full_pool(library, FOUR)
    _announce(
        manager,
        "other",
        speech_to_text=1,
        object_detection=1,
        sentiment_analysis=1,
        embedding=1,
    )
    # Every idle instance is wanted; they go in key order.
    assert pool.evict_idle_for(_gpu_assignment(library, "llama-textgen", gpus=2))
    assert [agent for agent in FOUR if handles[agent].dead] == ["clip", "llama-sentiment"]


def test_job_deploys_over_an_idle_instance_another_dag_still_wants(
    library, profile_store, videos
):
    engine, cluster, manager = _environment(library, paper_testbed(node_count=1))
    pool = ServerPool(manager, library)
    warm = pool.ensure(_gpu_assignment(library, "llama-textgen", gpus=8))
    _announce(manager, "other", text_generation=3)
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-yield")
    executor = WorkflowExecutor(
        engine, manager, library, plan, server_pool=pool, workflow_id="exec-yield"
    )
    executor.execute(graph)
    assert graph.is_complete()
    assert warm.dead
    assert warm not in pool.handles()


def test_deferred_lanes_deploy_stage_by_stage_on_a_small_cluster(
    library, profile_store, videos
):
    # NVLM (8 GPUs) and its embedder (2 GPUs) never fit one 8-GPU node
    # together: lanes that do not fit at start deploy at dispatch time.
    engine, cluster, manager = _environment(library, paper_testbed(node_count=1))
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-defer")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-defer")
    executor.execute(graph)
    assert graph.is_complete()
    executor.server_pool.teardown_all()
    assert cluster.free_gpus == cluster.total_gpus


def test_oversized_deployment_raises_at_once(library, profile_store, videos):
    # NVLM wants 8 GPUs; no 4-GPU node could ever hold it.
    nodes = [Node(name, gpu_count=4, cpu_cores=96) for name in ("a", "b")]
    engine, _, manager = _environment(library, Cluster(nodes))
    graph, plan = _plan_and_graph(library, profile_store, videos, "exec-huge")
    executor = WorkflowExecutor(engine, manager, library, plan, workflow_id="exec-huge")
    with pytest.raises(ExecutionError, match="^cannot deploy 'nvlm-72b'"):
        executor.execute(graph)
    assert engine.events_fired == 0
