"""Tests for the cluster-dynamics subsystem (spot, failures, autoscaling).

The tentpole contract: capacity events fire as engine events, the serving
stack survives them (requeue/replan/recover), everything is deterministic
under a fixed seed, and a dynamics-free run is byte-identical to the frozen
testbed behaviour.
"""

from __future__ import annotations

import pytest

from repro import AIWorkflowService, MurakkabRuntime
from repro.cluster.allocator import ResourceRequest
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.dynamics import (
    SCALEOUT_NODE_PREFIX,
    SPOT_NODE_PREFIX,
    ClusterDynamics,
    DynamicsConfig,
    FailureModel,
    NodeFailure,
)
from repro.cluster.manager import ClusterManager
from repro.cluster.node import Node
from repro.cluster.spot import SpotCapacityModel, SpotInstance
from repro.cluster.telemetry_exchange import ScalingAction, WorkflowAnnouncement
from repro.sim.engine import SimulationEngine
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.arrival import poisson_arrivals


# --------------------------------------------------------------------- #
# FailureModel
# --------------------------------------------------------------------- #


def test_failure_model_is_deterministic_and_bounded():
    first = FailureModel(horizon_s=500.0, mtbf_s=100.0, seed=11)
    second = FailureModel(horizon_s=500.0, mtbf_s=100.0, seed=11)
    assert first.failures == second.failures
    assert all(0.0 <= f.time < 500.0 for f in first.failures)
    different = FailureModel(horizon_s=500.0, mtbf_s=100.0, seed=12)
    assert first.failures != different.failures


def test_failure_model_explicit_schedule_sorted():
    model = FailureModel(failures=[NodeFailure(9.0), NodeFailure(3.0)])
    assert [f.time for f in model.failures] == [3.0, 9.0]


def test_failure_model_validation():
    with pytest.raises(ValueError):
        FailureModel(horizon_s=0)
    with pytest.raises(ValueError):
        FailureModel(mtbf_s=0)
    with pytest.raises(ValueError):
        NodeFailure(time=-1.0)


# --------------------------------------------------------------------- #
# Forced reclamation (allocator + manager)
# --------------------------------------------------------------------- #


def test_allocator_reclaim_node_revokes_everything():
    cluster = Cluster([Node("a", 4, 32), Node("b", 4, 32)])
    manager = ClusterManager(cluster)
    on_a = manager.allocate(ResourceRequest(owner="w1", gpus=2, cpu_cores=8))
    assert on_a is not None and on_a.node_id == "a"
    reclaimed = manager.allocator.reclaim_node("a")
    assert reclaimed == [on_a]
    assert cluster.node("a").free_gpu_count == 4
    assert cluster.node("a").free_cpu_cores == 32
    assert manager.allocator.allocations_for("w1") == []
    # Now empty, so removal is legal.
    cluster.remove_node("a")
    assert len(cluster) == 1


def test_allocator_reclaim_unknown_node_raises():
    manager = ClusterManager(Cluster([Node("a", 1, 8)]))
    with pytest.raises(KeyError):
        manager.allocator.reclaim_node("missing")


def test_manager_handle_node_loss_drops_instances_and_node():
    cluster = Cluster([Node("a", 4, 32), Node("b", 4, 32)])
    manager = ClusterManager(cluster)
    instance = manager.deploy_model("nvlm", gpus=4)
    assert instance.allocation.node_id == "a"
    survivor = manager.allocate(ResourceRequest(owner="w2", gpus=1, cpu_cores=4))
    assert survivor.node_id == "b"

    reclaimed, lost = manager.handle_node_loss("a")
    assert lost == [instance]
    assert [a.owner for a in reclaimed] == ["model:nvlm"]
    assert manager.instances_for("nvlm") == []
    assert len(cluster) == 1 and cluster.nodes[0].node_id == "b"
    # Work on the surviving node is untouched.
    assert manager.allocator.allocations_for("w2") == [survivor]
    kinds = [event.kind for event in manager.allocation_events]
    assert "reclaim" in kinds


# --------------------------------------------------------------------- #
# Spot windows and failures as engine events
# --------------------------------------------------------------------- #


def _window(instance_id, start, end, gpus=2):
    return SpotInstance(
        instance_id=instance_id,
        gpus=gpus,
        cpu_cores=16,
        available_from=start,
        available_until=end,
    )


def test_spot_window_adds_then_preempts_node():
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 4, 32)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    spot = SpotCapacityModel(instances=[_window("s0", 10.0, 50.0)])
    dynamics = ClusterDynamics(DynamicsConfig(spot=spot)).install(engine, manager)

    engine.run(until=20.0)
    assert cluster.total_gpus == 6
    spot_ids = [n.node_id for n in cluster if n.node_id.startswith(SPOT_NODE_PREFIX)]
    assert spot_ids == [f"{SPOT_NODE_PREFIX}s0"]

    engine.run()
    assert cluster.total_gpus == 4
    assert dynamics.log.spot_windows_opened == 1
    assert dynamics.log.preemptions == 1
    assert dynamics.log.nodes_lost == 1


def test_spot_preemption_reclaims_work_on_the_spot_node():
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 1, 8)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    spot = SpotCapacityModel(instances=[_window("s0", 0.0, 30.0)])
    dynamics = ClusterDynamics(DynamicsConfig(spot=spot)).install(engine, manager)

    engine.run(until=5.0)
    # The only place 2 GPUs fit is the spot node.
    allocation = manager.allocate(ResourceRequest(owner="w", gpus=2))
    assert allocation.node_id == f"{SPOT_NODE_PREFIX}s0"
    engine.run()
    assert dynamics.log.reclaimed_allocations == 1
    assert manager.allocator.allocations_for("w") == []
    assert cluster.total_gpus == 1


def test_failure_targets_named_node_and_spares_last_node():
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 2, 16), Node("b", 2, 16)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    failures = FailureModel(
        failures=[NodeFailure(time=5.0, node_id="a"), NodeFailure(time=10.0)]
    )
    dynamics = ClusterDynamics(DynamicsConfig(failures=failures)).install(engine, manager)
    engine.run()
    # The named failure kills "a"; the rank-based one is skipped because "b"
    # is the last node standing.
    assert [n.node_id for n in cluster] == ["b"]
    assert dynamics.log.failures == 1


def test_dynamics_events_are_deterministic_across_runs():
    def run_once():
        engine = SimulationEngine()
        cluster = paper_testbed()
        manager = ClusterManager(cluster, time_source=lambda: engine.now)
        config = DynamicsConfig(
            spot=SpotCapacityModel(horizon_s=300.0, seed=7),
            failures=FailureModel(horizon_s=300.0, mtbf_s=120.0, seed=7),
        )
        dynamics = ClusterDynamics(config).install(engine, manager)
        engine.run()
        return dynamics.log.counters(), sorted(n.node_id for n in cluster)

    assert run_once() == run_once()


def test_install_twice_rejected():
    engine = SimulationEngine()
    manager = ClusterManager(paper_testbed(), time_source=lambda: engine.now)
    dynamics = ClusterDynamics(DynamicsConfig())
    dynamics.install(engine, manager)
    with pytest.raises(RuntimeError):
        dynamics.install(engine, manager)


# --------------------------------------------------------------------- #
# Autoscaling from telemetry pressure
# --------------------------------------------------------------------- #


def test_sustained_pressure_scales_out_then_idle_scales_in():
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 2, 16)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    config = DynamicsConfig(
        autoscale=True,
        autoscale_interval_s=10.0,
        autoscale_horizon_s=200.0,
        autoscale_pressure_ticks=2,
        autoscale_idle_ticks=3,
        autoscale_max_nodes=1,
        autoscale_node_gpus=2,
        autoscale_node_cpu_cores=16,
    )
    dynamics = ClusterDynamics(config).install(engine, manager)

    # Saturate the cluster and announce unmet demand.
    allocation = manager.allocate(ResourceRequest(owner="w", gpus=2))
    manager.announce_workflow(
        WorkflowAnnouncement(
            workflow_id="w",
            timestamp=0.0,
            upcoming_demand={"nvlm": 4},
            total_tasks=4,
        )
    )
    # Release the pressure at t=65 so later ticks read as idle.
    engine.schedule_at(65.0, manager.release, allocation)
    engine.schedule_at(65.0, manager.retract_workflow, "w")
    engine.run()

    assert dynamics.log.scale_outs == 1
    assert dynamics.log.scale_ins == 1
    assert len(cluster) == 1  # the scale-out node came and went
    actions = [c.action for c in dynamics.log.commands]
    assert actions == [ScalingAction.SCALE_UP, ScalingAction.SCALE_DOWN]
    assert dynamics.log.commands[0].agent_name == "nvlm"
    assert dynamics.log.commands[0].delta_gpus == 2


def test_admission_shed_counts_as_pressure_even_with_free_gpus():
    """Jobs the admission ladder turns away never queue, so the autoscaler
    cannot see them as pending demand — the shed-counter feedback makes a
    shedding tick pressured even while GPUs look free."""
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 2, 16)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    config = DynamicsConfig(
        autoscale=True,
        autoscale_interval_s=10.0,
        autoscale_horizon_s=100.0,
        autoscale_pressure_ticks=2,
        autoscale_idle_ticks=3,
        autoscale_max_nodes=1,
        autoscale_node_gpus=2,
        autoscale_node_cpu_cores=16,
    )
    dynamics = ClusterDynamics(config).install(engine, manager)

    shed = {"total": 0}
    dynamics.set_admission_feedback(lambda: shed["total"])

    def turn_away(count):
        shed["total"] += count

    # The cluster is completely idle: free GPUs, no announced demand.  Only
    # the shed deltas before the first two ticks register as pressure.
    engine.schedule_at(5.0, turn_away, 3)
    engine.schedule_at(15.0, turn_away, 1)
    engine.run()

    assert dynamics.log.scale_outs == 1
    command = dynamics.log.commands[0]
    assert command.action == ScalingAction.SCALE_UP
    assert "admission shed 1 job(s)" in command.reason
    # Once shedding stops, idle ticks reclaim the scale-out node.
    assert dynamics.log.scale_ins == 1
    assert len(cluster) == 1


def test_admission_feedback_baselines_preexisting_shed():
    """Shed that happened before the feedback was attached is history, not
    pressure: attaching must snapshot the cumulative counter."""
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 2, 16)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    config = DynamicsConfig(
        autoscale=True,
        autoscale_interval_s=10.0,
        autoscale_horizon_s=60.0,
        autoscale_pressure_ticks=1,
        autoscale_idle_ticks=100,
        autoscale_max_nodes=1,
        autoscale_node_gpus=2,
        autoscale_node_cpu_cores=16,
    )
    dynamics = ClusterDynamics(config).install(engine, manager)
    dynamics.set_admission_feedback(lambda: 5)  # constant: no new shed ever
    engine.run()

    assert dynamics.log.scale_outs == 0
    assert dynamics.log.commands == []


def test_scale_out_respects_max_nodes():
    engine = SimulationEngine()
    cluster = Cluster([Node("a", 1, 8)])
    manager = ClusterManager(cluster, time_source=lambda: engine.now)
    config = DynamicsConfig(
        autoscale=True,
        autoscale_interval_s=10.0,
        autoscale_horizon_s=100.0,
        autoscale_pressure_ticks=1,
        autoscale_idle_ticks=100,
        autoscale_max_nodes=2,
        autoscale_node_gpus=0,  # added nodes carry no GPUs...
        autoscale_node_cpu_cores=8,
    )
    dynamics = ClusterDynamics(config).install(engine, manager)
    manager.allocate(ResourceRequest(owner="w", gpus=1))
    manager.announce_workflow(
        WorkflowAnnouncement(
            workflow_id="w", timestamp=0.0, upcoming_demand={"x": 1}, total_tasks=1
        )
    )
    engine.run()
    # ...so pressure persists every tick, yet only max_nodes are ever added.
    assert dynamics.log.scale_outs == 2
    scaleouts = [n for n in cluster if n.node_id.startswith(SCALEOUT_NODE_PREFIX)]
    assert len(scaleouts) == 2


# --------------------------------------------------------------------- #
# End-to-end recovery: jobs survive losing their serving node
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def recovery_runs(videos_module):
    videos = videos_module
    baseline = MurakkabRuntime().submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="job")
    )
    runtime = MurakkabRuntime()
    dynamics = runtime.attach_dynamics(
        DynamicsConfig(
            failures=FailureModel(failures=[NodeFailure(time=5.0, node_id="node0")])
        )
    )
    disrupted = runtime.submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="job")
    )
    return baseline, disrupted, dynamics, runtime


@pytest.fixture(scope="module")
def videos_module():
    from repro.workloads.video import generate_videos

    return generate_videos(count=2, scenes_per_video=3, frames_per_scene=4)


def test_job_survives_serving_node_failure(recovery_runs):
    baseline, disrupted, dynamics, runtime = recovery_runs
    assert dynamics.log.failures == 1
    assert dynamics.log.lost_instances >= 1
    assert dynamics.log.requeued_tasks >= 1
    assert dynamics.log.recovered_jobs == 1
    assert dynamics.log.failed_jobs == 0
    assert len(runtime.cluster) == 1  # node0 never came back


def test_recovered_job_matches_baseline_output(recovery_runs):
    baseline, disrupted, dynamics, _ = recovery_runs
    # Same answer and quality; the disruption only costs time.
    assert disrupted.output == baseline.output
    assert disrupted.quality == baseline.quality
    assert disrupted.makespan_s >= baseline.makespan_s


def test_requeued_tasks_record_retries(recovery_runs):
    _, disrupted, dynamics, _ = recovery_runs
    retried = [t for t in disrupted.graph if t.retries > 0]
    assert len(retried) == dynamics.log.requeued_tasks
    assert all(t.state.value == "completed" for t in disrupted.graph)


def test_dynamics_free_submit_is_unchanged(recovery_runs, videos_module):
    baseline, _, _, _ = recovery_runs
    again = MurakkabRuntime().submit(
        compile_spec(video_understanding_spec(), inputs=videos_module, job_id="job")
    )
    assert again.makespan_s == baseline.makespan_s
    assert again.energy_wh == baseline.energy_wh
    assert again.cost == baseline.cost
    assert again.plan.describe() == baseline.plan.describe()


# --------------------------------------------------------------------- #
# Trace serving under a disruption schedule
# --------------------------------------------------------------------- #


def _disrupted_config(horizon: float = 120.0) -> DynamicsConfig:
    return DynamicsConfig(
        spot=SpotCapacityModel(horizon_s=horizon, seed=5),
        failures=FailureModel(
            failures=[NodeFailure(time=8.0, node_id="node0")], horizon_s=horizon
        ),
    )


def _run_disrupted_trace():
    arrivals = poisson_arrivals(
        rate_per_s=0.25, horizon_s=120.0, workloads=("newsfeed",), seed=3
    )
    service = AIWorkflowService(dynamics=_disrupted_config())
    report = service.submit_trace(arrivals)
    summary = report.summary()
    service.shutdown()
    return report, summary


def test_trace_under_disruptions_is_deterministic():
    first_report, first_summary = _run_disrupted_trace()
    second_report, second_summary = _run_disrupted_trace()
    # Wall-clock throughput is the only nondeterministic field by design.
    first_summary.pop("wall_jobs_per_second")
    second_summary.pop("wall_jobs_per_second")
    assert first_summary == second_summary
    assert first_report.disruptions == second_report.disruptions
    assert first_report.groups == second_report.groups
    # The schedule actually disrupted the run, and everything was served.
    assert first_report.disruptions["nodes_lost"] >= 1
    assert first_report.jobs == len(
        poisson_arrivals(rate_per_s=0.25, horizon_s=120.0, workloads=("newsfeed",), seed=3)
    )
    assert first_report.failed_jobs == 0


def test_trace_disruption_invalidates_steady_state():
    report, _ = _run_disrupted_trace()
    # A frozen cluster converges after 2 simulated jobs; a disruption in the
    # middle of the trace must force at least one extra probe.
    assert report.simulated_jobs > 2


def test_trace_recovery_is_counted():
    # Fail the serving node while the very first probe job is running.
    arrivals = poisson_arrivals(
        rate_per_s=0.2, horizon_s=60.0, workloads=("video-understanding",), seed=3
    )
    config = DynamicsConfig(
        failures=FailureModel(
            failures=[NodeFailure(time=arrivals[0].arrival_time + 5.0, node_id="node0")]
        )
    )
    service = AIWorkflowService(dynamics=config)
    report = service.submit_trace(arrivals)
    service.shutdown()
    assert report.disruptions["recovered_jobs"] >= 1
    assert report.disruptions["requeued_tasks"] >= 1
    assert report.jobs == len(arrivals)


def test_unrecoverable_jobs_fail_cleanly_and_trace_continues():
    # All GPUs live on node0; once it fails, GPU workloads can never run
    # again, but the trace must keep going and account every job as failed
    # without leaking the dead workflows' state into the shared engine.
    from repro.cluster.node import Node
    from repro.core.runtime import MurakkabRuntime as Runtime

    arrivals = poisson_arrivals(
        rate_per_s=0.1, horizon_s=80.0, workloads=("video-understanding",), seed=3
    )
    cluster = Cluster([Node("node0", 8, 96), Node("cpu1", 0, 96)])
    runtime = Runtime(cluster=cluster)
    config = DynamicsConfig(
        failures=FailureModel(
            failures=[NodeFailure(time=arrivals[0].arrival_time + 3.0, node_id="node0")]
        )
    )
    service = AIWorkflowService(runtime=runtime, dynamics=config)
    report = service.submit_trace(arrivals)
    service.shutdown()
    assert report.failed_jobs == len(arrivals)
    assert report.jobs == 0
    assert report.disruptions["failed_jobs"] >= 1
    # The dead workflow released everything it held on the surviving node.
    assert cluster.free_cpu_cores == cluster.total_cpu_cores
    assert runtime.engine.pending_events == 0


def test_multiplex_mode_counts_unrecoverable_jobs():
    from repro.cluster.node import Node
    from repro.core.runtime import MurakkabRuntime as Runtime

    arrivals = poisson_arrivals(
        rate_per_s=0.1, horizon_s=60.0, workloads=("video-understanding",), seed=3
    )
    cluster = Cluster([Node("node0", 8, 96), Node("cpu1", 0, 96)])
    runtime = Runtime(cluster=cluster)
    config = DynamicsConfig(
        failures=FailureModel(
            failures=[NodeFailure(time=arrivals[0].arrival_time + 3.0, node_id="node0")]
        )
    )
    service = AIWorkflowService(runtime=runtime, dynamics=config)
    report = service.submit_trace(arrivals, mode="multiplex")
    service.shutdown()
    assert report.failed_jobs == len(arrivals)
    assert report.jobs == 0
    assert cluster.free_cpu_cores == cluster.total_cpu_cores


def test_dynamics_free_trace_has_no_disruption_keys():
    arrivals = poisson_arrivals(
        rate_per_s=0.5, horizon_s=30.0, workloads=("newsfeed",), seed=3
    )
    service = AIWorkflowService()
    report = service.submit_trace(arrivals)
    service.shutdown()
    assert report.disruptions == {}
    assert "disruptions" not in report.summary()
    assert "failed_jobs" not in report.summary()
