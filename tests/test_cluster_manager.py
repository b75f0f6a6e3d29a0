"""Unit tests for the cluster manager."""

import pytest

from repro.agents.library import default_library
from repro.cluster.allocator import ResourceRequest
from repro.cluster.cluster import paper_testbed
from repro.cluster.manager import ClusterManager
from repro.cluster.spot import SpotCapacityModel
from repro.cluster.telemetry_exchange import ScalingAction, WorkflowAnnouncement


def _manager(time=0.0, spot=None):
    current = {"now": time}
    manager = ClusterManager(
        paper_testbed(), time_source=lambda: current["now"], spot_model=spot
    )
    return manager, current


def test_deploy_and_teardown_model():
    manager, _ = _manager()
    instance = manager.deploy_model("whisper", gpus=1)
    assert manager.total_deployed_gpus() == 1
    assert manager.instances_for("whisper") == [instance]
    manager.teardown_model(instance)
    assert manager.total_deployed_gpus() == 0
    assert manager.cluster.free_gpus == 16


def test_deploy_model_that_does_not_fit_raises():
    manager, _ = _manager()
    with pytest.raises(RuntimeError):
        manager.deploy_model("giant", gpus=9)


def test_teardown_unknown_instance_raises():
    manager, _ = _manager()
    instance = manager.deploy_model("whisper", gpus=1)
    manager.teardown_model(instance)
    with pytest.raises(KeyError):
        manager.teardown_model(instance)


def test_teardown_all_clears_everything():
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    manager.deploy_model("nvlm", gpus=8)
    manager.teardown_all()
    assert manager.total_deployed_gpus() == 0


def test_stats_reports_per_model_consumption():
    manager, _ = _manager()
    manager.deploy_model("nvlm", gpus=8)
    manager.deploy_model("clip", cpu_cores=4)
    stats = manager.stats()
    assert stats.per_model_gpus["nvlm"] == 8
    assert stats.per_model_cpu_cores["clip"] == 4
    assert stats.free_gpus == 8
    assert stats.gpu_utilization == pytest.approx(0.5)


def test_stats_includes_harvestable_spot_gpus():
    spot = SpotCapacityModel(horizon_s=100.0, max_concurrent_instances=1, seed=1)
    manager, current = _manager(spot=spot)
    current["now"] = spot.instances[0].available_from + 1.0
    assert manager.stats().harvestable_gpus >= 1


def test_allocation_events_are_timestamped():
    manager, current = _manager()
    current["now"] = 12.0
    allocation = manager.allocate(ResourceRequest(owner="x", cpu_cores=2))
    current["now"] = 20.0
    manager.release(allocation)
    kinds = [(event.kind, event.time) for event in manager.allocation_events]
    assert kinds == [("allocate", 12.0), ("release", 20.0)]


def test_workflow_announcements_aggregate_demand():
    manager, _ = _manager()
    manager.announce_workflow(
        WorkflowAnnouncement("wf-a", 0.0, upcoming_demand={"speech_to_text": 4})
    )
    manager.announce_workflow(
        WorkflowAnnouncement("wf-b", 0.0, upcoming_demand={"speech_to_text": 2, "embedding": 1})
    )
    demand = manager.aggregate_upcoming_demand()
    assert demand == {"speech_to_text": 6, "embedding": 1}
    manager.retract_workflow("wf-a")
    assert manager.aggregate_upcoming_demand()["speech_to_text"] == 2


def test_rebalancing_scales_down_idle_models_and_up_missing_ones():
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    manager.announce_workflow(
        WorkflowAnnouncement("wf", 0.0, upcoming_demand={"scene_summarization": 5})
    )
    commands = manager.plan_rebalancing(default_library())
    actions = {(c.action, c.agent_name) for c in commands}
    assert (ScalingAction.SCALE_DOWN, "whisper") in actions
    assert (ScalingAction.SCALE_UP, "scene_summarization") in actions


def test_apply_scale_downs_reclaims_gpus():
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    manager.announce_workflow(WorkflowAnnouncement("wf", 0.0, upcoming_demand={}))
    commands = manager.plan_rebalancing(default_library())
    reclaimed = manager.apply_scale_downs(commands)
    assert reclaimed == 1
    assert manager.instances_for("whisper") == []


def test_no_scale_down_when_demand_exists():
    """The paper's example: keep Whisper only while STT work is expected."""
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    manager.announce_workflow(
        WorkflowAnnouncement("wf", 0.0, upcoming_demand={"speech_to_text": 3})
    )
    commands = manager.plan_rebalancing(default_library())
    assert all(c.agent_name != "whisper" or c.action is not ScalingAction.SCALE_DOWN for c in commands)


def test_rebalancing_maps_interface_demand_to_deployment_groups():
    """Demand is announced per interface; whisper serves speech_to_text, so
    it is neither scaled down nor asked for again, and a group shared by
    two interfaces (nvlm-72b) stays while either has demand."""
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    manager.deploy_model("nvlm-72b", gpus=8)
    manager.announce_workflow(
        WorkflowAnnouncement(
            "wf", 0.0, upcoming_demand={"speech_to_text": 5, "question_answering": 1}
        )
    )
    commands = manager.plan_rebalancing(default_library())
    assert commands == []
    manager.retract_workflow("wf")
    manager.announce_workflow(
        WorkflowAnnouncement("wf", 0.0, upcoming_demand={"speech_to_text": 5})
    )
    actions = {(c.action, c.agent_name) for c in manager.plan_rebalancing(default_library())}
    assert actions == {(ScalingAction.SCALE_DOWN, "nvlm-72b")}


def test_warm_agents_lists_deployed_models():
    manager, _ = _manager()
    manager.deploy_model("whisper", gpus=1)
    assert manager.warm_agents() == ["whisper"]


def test_announcement_progress_property():
    announcement = WorkflowAnnouncement("wf", 0.0, completed_tasks=5, total_tasks=10)
    assert announcement.progress == 0.5
    assert WorkflowAnnouncement("wf", 0.0).progress == 0.0


def _served_allocation_events(cap):
    """Serve a short multiplex newsfeed trace with the event log capped at
    ``cap`` (``None``: unbounded) and return the retained log."""
    from unittest import mock

    from repro.service import AIWorkflowService
    from repro.workloads.arrival import uniform_arrivals

    with mock.patch.object(ClusterManager, "EVENT_LOG_CAP", cap):
        service = AIWorkflowService()
        try:
            service.submit_trace(
                uniform_arrivals(count=6, interval_s=0.5, workloads=("newsfeed",)),
                mode="multiplex",
            )
        finally:
            service.shutdown()
    return service.runtime.cluster_manager.allocation_events


def test_allocation_event_log_keeps_exactly_the_tail_of_an_unbounded_log():
    unbounded = _served_allocation_events(None)
    bounded = _served_allocation_events(16)
    assert len(unbounded) > 16
    assert bounded == unbounded[-16:]
    assert {event.kind for event in unbounded} >= {"allocate", "release"}


def test_allocation_event_log_is_bounded_by_default():
    manager, current = _manager()
    request = ResourceRequest(owner="w", cpu_cores=1)
    for step in range(ClusterManager.EVENT_LOG_CAP):
        current["now"] = float(step)
        manager.release(manager.allocate(request))
    events = manager.allocation_events
    assert isinstance(events, list)
    assert len(events) == ClusterManager.EVENT_LOG_CAP
    assert (events[0].time, events[0].kind) == (ClusterManager.EVENT_LOG_CAP / 2, "allocate")
    assert (events[-1].time, events[-1].kind) == (ClusterManager.EVENT_LOG_CAP - 1.0, "release")
