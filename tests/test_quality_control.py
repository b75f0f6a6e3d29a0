"""Unit tests for end-to-end quality control (paper §5)."""

import pytest

from repro.agents.base import AgentInterface
from repro.core.constraints import ConstraintSet, MIN_COST
from repro.core.decomposer import JobDecomposer
from repro.core.planner import ConfigurationPlanner
from repro.core.quality import cascade_quality
from repro.core.quality_control import QualityController, plan_checkpoints
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec


@pytest.fixture(scope="module")
def graph(videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="qc-graph")
    graph, _ = JobDecomposer().decompose(job)
    return graph


@pytest.fixture(scope="module")
def cheap_plan(profile_store, library, graph):
    """A deliberately low-quality plan (no quality floor, MIN_COST)."""
    planner = ConfigurationPlanner(profile_store, library)
    return planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.0))


@pytest.fixture(scope="module")
def controller(profile_store):
    return QualityController(profile_store)


def test_stage_impacts_sorted_by_headroom(controller, cheap_plan):
    impacts = controller.stage_impacts(cheap_plan)
    assert len(impacts) == len(cheap_plan.assignments)
    headrooms = [impact.improvement_headroom for impact in impacts]
    assert headrooms == sorted(headrooms, reverse=True)
    assert all(impact.quality_if_perfect >= impact.current_workflow_quality for impact in impacts)


def test_most_impactful_interface_is_lowest_quality_stage(controller, cheap_plan):
    interface = controller.most_impactful_interface(cheap_plan)
    qualities = cheap_plan.stage_qualities()
    assert qualities[interface.value] == min(qualities.values())


def test_propose_upgrade_meets_target_cheaply(controller, cheap_plan):
    current = cascade_quality(cheap_plan.stage_qualities())
    target = min(1.0, current + 0.03)
    proposal = controller.propose_upgrade(cheap_plan, quality_target=target)
    assert proposal is not None
    assert proposal.projected_workflow_quality >= target
    assert proposal.upgraded_quality > cheap_plan.primary_assignment(proposal.interface).profile.quality


def test_propose_upgrade_returns_none_when_already_good(controller, cheap_plan):
    current = cascade_quality(cheap_plan.stage_qualities())
    assert controller.propose_upgrade(cheap_plan, quality_target=current) is None


def test_propose_upgrade_returns_none_when_unreachable(controller, cheap_plan):
    assert controller.propose_upgrade(cheap_plan, quality_target=0.9999) is None


def test_propose_upgrade_validates_target(controller, cheap_plan):
    with pytest.raises(ValueError):
        controller.propose_upgrade(cheap_plan, quality_target=1.5)


def test_cost_quality_frontier_is_sorted_and_nonempty(controller):
    frontier = controller.cost_quality_frontier(AgentInterface.SPEECH_TO_TEXT)
    assert frontier
    costs = [cost for cost, _quality in frontier]
    assert costs == sorted(costs)


def test_checkpoints_protect_the_most_downstream_work(graph):
    checkpoints = plan_checkpoints(graph, max_checkpoints=2)
    assert 1 <= len(checkpoints) <= 2
    assert checkpoints[0].downstream_tasks_protected >= checkpoints[-1].downstream_tasks_protected
    # The first checkpoint should follow an early, load-bearing stage, never
    # the final answer (which has no downstream tasks).
    assert checkpoints[0].after_interface is not AgentInterface.QUESTION_ANSWERING
    assert "downstream" in checkpoints[0].reason


def test_checkpoints_validation(graph):
    with pytest.raises(ValueError):
        plan_checkpoints(graph, max_checkpoints=0)
