"""Integration tests for the Murakkab runtime (single job)."""

import pytest

from repro import MIN_COST, MIN_LATENCY, MurakkabRuntime
from repro.agents.base import AgentInterface
from repro.core.job import Job
from repro.experiments.configs import stt_override
from repro.workflows.document_qa import document_qa_job
from repro.workflows.newsfeed import newsfeed_job
from repro.workflows.video_understanding import video_understanding_job


@pytest.fixture
def runtime():
    return MurakkabRuntime()


def test_submit_video_job_returns_complete_result(runtime, videos):
    job = video_understanding_job(videos=videos, job_id="rt-video")
    result = runtime.submit(job)
    assert result.makespan_s > 0
    assert result.energy_wh > 0
    assert result.cost > 0
    assert 0 < result.quality <= 1.0
    assert result.provisioned_gpus >= 10
    assert "answer" in result.output
    assert len(result.task_results) == len(result.graph.tasks)


def test_submit_records_orchestration_overhead_in_trace(runtime, videos):
    job = video_understanding_job(videos=videos, job_id="rt-orch")
    result = runtime.submit(job)
    categories = result.trace.categories()
    assert "Orchestration" in categories
    orchestration = result.trace.by_category("Orchestration")[0]
    assert orchestration.duration < 0.02 * result.makespan_s


def test_submit_releases_cluster_resources(runtime, videos):
    job = video_understanding_job(videos=videos, job_id="rt-release")
    runtime.submit(job)
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
    assert runtime.cluster.free_cpu_cores == runtime.cluster.total_cpu_cores


def test_keep_warm_retains_serving_instances(videos):
    runtime = MurakkabRuntime()
    job = video_understanding_job(videos=videos, job_id="rt-warm")
    runtime.submit(job, keep_warm=True)
    assert runtime.cluster.free_gpus < runtime.cluster.total_gpus
    assert runtime.cluster_manager.total_deployed_gpus() > 0


def test_min_latency_job_is_faster_than_min_cost(videos):
    cost_result = MurakkabRuntime().submit(
        video_understanding_job(videos=videos, constraints=MIN_COST, job_id="rt-cost")
    )
    latency_result = MurakkabRuntime().submit(
        video_understanding_job(videos=videos, constraints=MIN_LATENCY, job_id="rt-lat")
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
    job = video_understanding_job(videos=videos, job_id="rt-override")
    result = runtime.submit(job, overrides=stt_override("gpu"))
    stt = result.plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert stt.config.gpus == 1 and stt.config.cpu_cores == 0


def test_job_execute_convenience_builds_runtime(videos):
    job = video_understanding_job(videos=videos, job_id="rt-convenience")
    result = job.execute()
    assert result.makespan_s > 0


def test_newsfeed_job_runs_end_to_end(runtime):
    result = runtime.submit(newsfeed_job(job_id="rt-feed"))
    assert "text" in result.output
    assert "Alice" in result.output["prompt"]
    assert result.energy_wh >= 0


def test_document_qa_job_retrieves_relevant_documents(runtime):
    result = runtime.submit(document_qa_job(job_id="rt-docs"))
    assert "answer" in result.output
    assert result.makespan_s > 0


def test_quality_reflects_planned_stage_qualities(runtime, videos):
    job = video_understanding_job(videos=videos, job_id="rt-quality")
    result = runtime.submit(job)
    planned = result.plan.stage_qualities()
    assert result.quality <= min(planned.values()) + 1e-9


def test_job_validation():
    with pytest.raises(ValueError):
        Job(description="")
    with pytest.raises(ValueError):
        Job(description="x", quality_target=2.0)


def test_result_summary_fields(runtime, videos):
    result = runtime.submit(video_understanding_job(videos=videos, job_id="rt-summary"))
    summary = result.summary()
    for key in ("job_id", "makespan_s", "energy_wh", "cost", "quality", "tasks"):
        assert key in summary


def test_sequential_jobs_reuse_same_runtime(runtime, videos):
    first = runtime.submit(video_understanding_job(videos=videos, job_id="rt-seq-1"))
    second = runtime.submit(video_understanding_job(videos=videos, job_id="rt-seq-2"))
    assert second.started_at >= first.finished_at
    assert second.makespan_s == pytest.approx(first.makespan_s, rel=0.05)


def test_orchestration_tool_calls_are_built_lazily_once(runtime, videos):
    job = video_understanding_job(videos=videos, job_id="lazy-tools")
    orchestration = runtime.orchestrator.prepare(job)
    assert orchestration._tool_calls is None
    calls = orchestration.tool_calls
    assert orchestration.tool_calls is calls
    assert set(calls) == {task.task_id for task in orchestration.graph}
    assert calls == runtime.orchestrator.mapper.map_graph(
        orchestration.graph, orchestration.plan.chosen_agents()
    )
