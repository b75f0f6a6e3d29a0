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
from repro.workflows.video_understanding import video_understanding_job

QUALITY_FLOOR = 0.93


def _environment(library, cluster=None):
    engine = SimulationEngine()
    cluster = cluster or paper_testbed()
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    return engine, cluster, manager


def _plan_and_graph(library, profile_store, videos, job_id):
    job = video_understanding_job(videos=videos, job_id=job_id)
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
