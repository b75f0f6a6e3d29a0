"""Integration tests for multi-tenant execution."""

import pytest

from repro import MurakkabRuntime, TenantSubmission, run_submissions
from repro.spec import compile_spec
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.video_understanding import video_understanding_spec


def test_submission_validation(videos):
    with pytest.raises(ValueError):
        TenantSubmission(
            arrival_time=-1.0, job=compile_spec(video_understanding_spec(), inputs=videos)
        )
    with pytest.raises(ValueError):
        run_submissions(MurakkabRuntime(), [])


def test_two_tenants_share_the_cluster(videos):
    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-video")
            ),
            TenantSubmission(2.0, compile_spec(newsfeed_spec(), job_id="mt-feed")),
        ]
    )
    assert set(report.job_results) == {"mt-video", "mt-feed"}
    assert report.batch_makespan_s > 0
    assert report.total_energy_wh > 0
    assert len(report.merged_trace) >= sum(
        len(result.trace) for result in report.job_results.values()
    ) - 2  # orchestration intervals are per-job


def test_multiplexing_is_no_slower_than_running_serially(videos):
    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-a")
            ),
            TenantSubmission(1.0, compile_spec(newsfeed_spec(), job_id="mt-b")),
        ]
    )
    serial_total = sum(result.makespan_s for result in report.job_results.values())
    assert report.batch_makespan_s <= serial_total


def test_cluster_fully_released_after_batch(videos):
    runtime = MurakkabRuntime()
    run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-rel-a")
            ),
            TenantSubmission(0.0, compile_spec(newsfeed_spec(), job_id="mt-rel-b")),
        ]
    )
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus
    assert runtime.cluster.free_cpu_cores == runtime.cluster.total_cpu_cores


def test_identical_video_tenants_share_serving_instances(videos):
    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-share-a")
            ),
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-share-b")
            ),
        ]
    )
    # One shared NVLM (8) + embedder (2) deployment serves both workflows, so
    # the pool never holds two copies of the 8-GPU server (peak <= 16 GPUs).
    assert report.provisioned_gpus <= runtime.cluster.total_gpus
    both = list(report.job_results.values())
    assert all(result.makespan_s > 0 for result in both)


def test_later_arrival_starts_later(videos):
    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-t0")
            ),
            TenantSubmission(30.0, compile_spec(newsfeed_spec(), job_id="mt-t30")),
        ]
    )
    assert report.job_results["mt-t30"].started_at >= 30.0


def test_many_tenants_share_one_engine_run(videos):
    """The coordinator generalises beyond two tenants (batched admission)."""
    runtime = MurakkabRuntime()
    submissions = [
        TenantSubmission(
            float(i) * 3.0, compile_spec(newsfeed_spec(), job_id=f"mt-n{i}")) for i in range(5
        )
    ]
    submissions.append(
        TenantSubmission(
            1.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-video-n")
        )
    )
    report = run_submissions(runtime, submissions)
    assert len(report.job_results) == 6
    assert report.completed_jobs == 6
    assert all(result.makespan_s > 0 for result in report.job_results.values())
    # Every job left a completion watermark on the shared engine.
    for job_id in report.job_results:
        assert runtime.engine.watermark(job_id) is not None
    assert runtime.cluster.free_gpus == runtime.cluster.total_gpus


def test_streaming_mode_bounds_retained_state(videos):
    """collect_traces=False streams per-job results and keeps only summaries."""
    runtime = MurakkabRuntime()
    streamed = []
    report = run_submissions(
        runtime,
        [
            TenantSubmission(
                0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-s0")
            ),
            TenantSubmission(2.0, compile_spec(newsfeed_spec(), job_id="mt-s1")),
            TenantSubmission(4.0, compile_spec(newsfeed_spec(), job_id="mt-s2")),
        ],
        collect_traces=False,
        on_result=lambda result: streamed.append(result),
    )
    assert [r.job_id for r in streamed] and len(streamed) == 3
    assert report.job_results == {}
    assert len(report.merged_trace) == 0
    assert set(report.job_summaries) == {"mt-s0", "mt-s1", "mt-s2"}
    assert report.completed_jobs == 3
    assert report.batch_makespan_s > 0
    assert report.total_energy_wh > 0
    assert report.mean_job_makespan_s() > 0
    # Each streamed result still carried its own full trace for accounting.
    assert all(len(result.trace) > 0 for result in streamed)


def test_streaming_energy_matches_full_accounting(videos):
    """Streaming (incremental) energy equals the merged-trace integration."""
    jobs = lambda: [
        TenantSubmission(
            0.0, compile_spec(video_understanding_spec(), inputs=videos, job_id="mt-e0")
        ),
        TenantSubmission(3.0, compile_spec(newsfeed_spec(), job_id="mt-e1")),
    ]
    full = run_submissions(MurakkabRuntime(), jobs())
    streaming = run_submissions(MurakkabRuntime(), jobs(), collect_traces=False)
    assert streaming.total_energy_wh == pytest.approx(full.total_energy_wh, rel=1e-9)
    assert streaming.batch_makespan_s == pytest.approx(full.batch_makespan_s)
    assert streaming.provisioned_gpus == full.provisioned_gpus


def test_three_gpu_bound_tenants_do_not_stall():
    """A workflow whose tasks all queue on a busy shared instance is woken by
    another workflow's completion (server-slot release notification)."""
    from repro.workflows.chain_of_thought import chain_of_thought_spec

    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(0.0, compile_spec(chain_of_thought_spec(), job_id=f"mt-cot{i}"))
            for i in range(3)
        ]
    )
    assert len(report.job_results) == 3
    assert all(result.makespan_s > 0 for result in report.job_results.values())


def test_multiplex_tenant_that_cannot_deploy_retracts_its_demand():
    # Every question-answering configuration needs 4 or 8 GPUs, so none fits
    # a 2-GPU node and the planner falls back to 8-GPU NVLM: the
    # admission fails before the job starts, and its announced DAG must not
    # linger to skew later evictions and rebalancing.
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.execution import ExecutionError
    from repro.loadgen import default_registry
    from repro.service import AIWorkflowService
    from repro.workloads.arrival import uniform_arrivals

    nodes = [Node(name, gpu_count=2, cpu_cores=96) for name in ("a", "b")]
    service = AIWorkflowService(runtime=MurakkabRuntime(cluster=Cluster(nodes)))
    arrivals = uniform_arrivals(2, interval_s=1.0, workloads=("chain-of-thought",))
    with pytest.raises(ExecutionError, match="^cannot deploy 'nvlm-72b'"):
        service.submit_trace(arrivals, registry=default_registry(), mode="multiplex")
    assert service.runtime.cluster_manager.aggregate_upcoming_demand() == {}
