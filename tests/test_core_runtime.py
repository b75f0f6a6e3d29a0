"""Integration tests for the Murakkab runtime (single job)."""

import pytest

from repro import MIN_COST, MIN_LATENCY, MurakkabRuntime
from repro.agents.base import AgentInterface
from repro.cluster.allocator import MODEL_OWNER_PREFIX
from repro.core.job import Job
from repro.experiments.configs import stt_override
from repro.policies.placement import WorkflowAwarePolicy
from repro.spec import compile_spec
from repro.workflows.document_qa import document_qa_spec
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.video_understanding import video_understanding_spec


@pytest.fixture
def runtime():
    return MurakkabRuntime()


def test_submit_video_job_returns_complete_result(runtime, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-video")
    result = runtime.submit(job)
    assert result.makespan_s > 0
    assert result.energy_wh > 0
    assert result.cost > 0
    assert 0 < result.quality <= 1.0
    assert result.provisioned_gpus >= 10
    assert "answer" in result.output
    assert len(result.task_results) == len(result.graph.tasks)


def test_submit_records_orchestration_overhead_in_trace(runtime, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-orch")
    result = runtime.submit(job)
    categories = result.trace.categories()
    assert "Orchestration" in categories
    orchestration = result.trace.by_category("Orchestration")[0]
    assert orchestration.duration < 0.02 * result.makespan_s


def test_submit_releases_cluster_resources(runtime, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-release")
    runtime.submit(job)
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
    assert runtime.cluster.free_cpu_cores == runtime.cluster.total_cpu_cores


def test_keep_warm_retains_serving_instances(videos):
    runtime = MurakkabRuntime()
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-warm")
    runtime.submit(job, keep_warm=True)
    assert runtime.cluster.free_gpus < runtime.cluster.total_gpus
    assert runtime.cluster_manager.total_deployed_gpus() > 0


def test_min_latency_job_is_faster_than_min_cost(videos):
    cost_result = MurakkabRuntime().submit(
        compile_spec(
            video_understanding_spec(constraints=MIN_COST), inputs=videos, job_id="rt-cost"
        )
    )
    latency_result = MurakkabRuntime().submit(
        compile_spec(
            video_understanding_spec(constraints=MIN_LATENCY), inputs=videos, job_id="rt-lat"
        )
    )
    assert latency_result.makespan_s <= cost_result.makespan_s
    # The greedy planner optimises per-task cost (paper §3.3): every stage it
    # picked under MIN_COST must be at most as expensive per work unit as the
    # MIN_LATENCY choice for the same stage.
    cost_profiles = {i: a[0].profile for i, a in cost_result.plan.assignments.items()}
    latency_profiles = {i: a[0].profile for i, a in latency_result.plan.assignments.items()}
    for interface, profile in cost_profiles.items():
        assert profile.cost <= latency_profiles[interface].cost + 1e-9


def test_override_forces_stt_hardware(videos):
    runtime = MurakkabRuntime()
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-override")
    result = runtime.submit(job, overrides=stt_override("gpu"))
    stt = result.plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert stt.config.gpus == 1 and stt.config.cpu_cores == 0


def test_job_execute_convenience_builds_runtime(videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-convenience")
    result = job.execute()
    assert result.makespan_s > 0


def test_newsfeed_job_runs_end_to_end(runtime):
    result = runtime.submit(compile_spec(newsfeed_spec(), job_id="rt-feed"))
    assert "text" in result.output
    assert "Alice" in result.output["prompt"]
    assert result.energy_wh >= 0


def test_document_qa_job_retrieves_relevant_documents(runtime):
    result = runtime.submit(compile_spec(document_qa_spec(), job_id="rt-docs"))
    assert "answer" in result.output
    assert result.makespan_s > 0


def test_quality_reflects_planned_stage_qualities(runtime, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-quality")
    result = runtime.submit(job)
    planned = result.plan.stage_qualities()
    assert result.quality <= min(planned.values()) + 1e-9


def test_job_validation():
    with pytest.raises(ValueError):
        Job(description="")
    with pytest.raises(ValueError):
        Job(description="x", quality_target=2.0)


def test_result_summary_fields(runtime, videos):
    result = runtime.submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-summary")
    )
    summary = result.summary()
    for key in ("job_id", "makespan_s", "energy_wh", "cost", "quality", "tasks"):
        assert key in summary


def test_sequential_jobs_reuse_same_runtime(runtime, videos):
    first = runtime.submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-seq-1")
    )
    second = runtime.submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-seq-2")
    )
    assert second.started_at >= first.finished_at
    assert second.makespan_s == pytest.approx(first.makespan_s, rel=0.05)


def test_orchestration_tool_calls_are_built_lazily_once(runtime, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="lazy-tools")
    orchestration = runtime.orchestrator.prepare(job)
    assert orchestration._tool_calls is None
    calls = orchestration.tool_calls
    assert orchestration.tool_calls is calls
    assert set(calls) == {task.task_id for task in orchestration.graph}
    assert calls == runtime.orchestrator.mapper.map_graph(
        orchestration.graph, orchestration.plan.chosen_agents()
    )


@pytest.mark.parametrize("workflow", ["video-understanding", "chain-of-thought"])
def test_failed_submit_releases_what_its_per_job_pool_deployed(workflow):
    # Two 2-GPU nodes: every question-answering configuration needs 4 or 8
    # GPUs, so none fits a node, and on a cluster that cannot grow the
    # planner refuses the job before its per-job pool deploys anything.
    from repro.client import MurakkabClient
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.constraints import Constraint
    from repro.core.planner import PlanningError
    from repro.loadgen import default_registry

    nodes = [Node(name, gpu_count=2, cpu_cores=96) for name in ("a", "b")]
    runtime = MurakkabRuntime(cluster=Cluster(nodes))
    with MurakkabClient(runtime=runtime, keep_warm=False, registry=default_registry()) as client:
        with pytest.raises(PlanningError, match="fits any node: the largest node has 2 A100 GPUs"):
            client.submit(workflow, constraints=Constraint("min_latency"))
        # Refused before the job's first event, instead of polling for
        # capacity that can never appear.
        assert runtime.engine.events_fired == 0
        assert runtime.cluster_manager.total_deployed_gpus() == 0
        assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
        assert runtime.cluster_manager.aggregate_upcoming_demand() == {}
        # The runtime stays usable.
        assert client.submit("newsfeed").result.makespan_s > 0


@pytest.mark.parametrize(
    "workflow, quality", [("video-understanding", 0.9), ("chain-of-thought", None)]
)
def test_planner_sizes_deployments_by_the_largest_node(workflow, quality):
    # Two 4-GPU nodes hold 8 GPUs between them but no 8-GPU deployment: the
    # planner must pick a configuration one node can hold.
    from repro.client import MurakkabClient
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.constraints import Constraint
    from repro.loadgen import default_registry

    nodes = [Node(name, gpu_count=4, cpu_cores=96) for name in ("a", "b")]
    runtime = MurakkabRuntime(cluster=Cluster(nodes))
    with MurakkabClient(runtime=runtime, keep_warm=False, registry=default_registry()) as client:
        result = client.submit(
            workflow, constraints=Constraint("min_latency"), quality_target=quality
        ).result
    assert result.makespan_s > 0
    assert max(a.config.gpus for a in result.plan.gpu_assignments()) <= 4


def _min_latency_video_job():
    from repro.core.constraints import Constraint
    from repro.loadgen import default_registry

    registry = default_registry()
    spec = registry.spec("video-understanding").with_overrides(
        constraints=Constraint("min_latency")
    )
    return compile_spec(
        spec, inputs=registry.materialized_inputs("video-understanding"), job_id="vu-4gpu"
    )


def test_planner_refuses_a_job_no_node_can_hold():
    # At video-understanding's 0.93 floor only NVLM answers questions, and it
    # needs eight GPUs: on two 4-GPU nodes the job is refused while it is
    # planned, before anything deploys.
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.planner import PlanningError

    nodes = [Node(name, gpu_count=4, cpu_cores=96) for name in ("a", "b")]
    runtime = MurakkabRuntime(cluster=Cluster(nodes))
    job = _min_latency_video_job()
    assert job.constraint_set().quality_floor == 0.93
    with pytest.raises(
        PlanningError,
        match=r"meets quality floor 0\.93 fits any node: the largest node has "
        r"4 A100 GPUs and 96 CPU cores",
    ):
        runtime.submit(job)
    assert runtime.cluster_manager.allocation_events == []
    assert runtime.engine.events_fired == 0


def test_planner_keeps_ranking_when_autoscaling_can_add_a_node():
    # An autoscaler may add an 8-GPU node, so the planner still ranks every
    # acceptable configuration (as it does under spot windows) and the job
    # runs once the new node holds NVLM.  Failures alone only remove nodes.
    from repro.cluster.cluster import Cluster
    from repro.cluster.dynamics import DynamicsConfig, FailureModel
    from repro.cluster.node import Node
    from repro.core.planner import PlanningError

    def two_small_nodes():
        return Cluster([Node(name, gpu_count=4, cpu_cores=96) for name in ("a", "b")])

    growing = MurakkabRuntime(cluster=two_small_nodes())
    growing.attach_dynamics(DynamicsConfig(autoscale=True))
    result = growing.submit(_min_latency_video_job())
    assert max(a.config.gpus for a in result.plan.gpu_assignments()) == 8

    shrinking = MurakkabRuntime(cluster=two_small_nodes())
    shrinking.attach_dynamics(DynamicsConfig(failures=FailureModel(failures=[])))
    with pytest.raises(PlanningError, match="fits any node"):
        shrinking.submit(_min_latency_video_job())


def test_node_shapes_key_the_planning_digest():
    from repro.cluster.cluster import Cluster
    from repro.cluster.manager import ClusterManager
    from repro.cluster.node import Node

    def stats(*gpu_counts):
        nodes = [Node(f"n{i}", gpu_count=g, cpu_cores=96) for i, g in enumerate(gpu_counts)]
        return ClusterManager(Cluster(nodes)).stats()

    # Equal totals, different largest node: planning may differ, so the
    # digests must too.
    split, whole = stats(4, 4), stats(8, 0)
    assert split.total_gpus == whole.total_gpus
    assert split.node_shapes == (("A100", 4, 96),)
    assert split.planning_digest() != whole.planning_digest()


def test_submit_tears_its_pool_down_whatever_fails(videos, monkeypatch):
    # The second deployment fails with an error that is not an
    # ExecutionError: the first must not stay deployed.
    runtime = MurakkabRuntime()
    deploy = runtime.cluster_manager.deploy_model
    calls = []

    def break_second(*args, **kwargs):
        calls.append(kwargs["agent_name"])
        if len(calls) == 2:
            raise ValueError("deployment broke")
        return deploy(*args, **kwargs)

    monkeypatch.setattr(runtime.cluster_manager, "deploy_model", break_second)
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-broken")
    with pytest.raises(ValueError, match="deployment broke"):
        runtime.submit(job)
    assert runtime.cluster_manager.total_deployed_gpus() == 0
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
    assert runtime.cluster_manager.aggregate_upcoming_demand() == {}


class _RefuseFirstDeployment(WorkflowAwarePolicy):
    """Refuses the first placement of every serving instance."""

    def __init__(self):
        super().__init__()
        self.refused = []

    def choose(self, request, candidates, owned):
        if request.owner.startswith(MODEL_OWNER_PREFIX) and request.owner not in self.refused:
            self.refused.append(request.owner)
            return None
        return super().choose(request, candidates, owned)


@pytest.mark.parametrize("elastic", [False, True], ids=["fixed", "elastic"])
def test_refused_placement_defers_the_lane_instead_of_failing(videos, elastic):
    # The shape fits, but the placement policy says no: the lane starts
    # without a server and deploys at dispatch time, when the policy agrees.
    from repro.cluster.dynamics import DynamicsConfig

    policy = _RefuseFirstDeployment()
    runtime = MurakkabRuntime(placement_policy=policy)
    if elastic:
        runtime.attach_dynamics(DynamicsConfig())
    result = runtime.submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="rt-refused")
    )
    assert all(task.state.value == "completed" for task in result.graph)
    assert policy.refused
    assert runtime.cluster_manager.total_deployed_gpus() == 0
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
