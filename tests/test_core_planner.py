"""Unit tests for the configuration planner."""

import pytest

from repro import calibration
from repro.agents.base import AgentInterface, HardwareConfig, SEQUENTIAL_MODE
from repro.cluster.telemetry_exchange import ResourceStatsMessage
from repro.core.constraints import ConstraintSet, MAX_QUALITY, MIN_COST, MIN_LATENCY
from repro.core.decomposer import JobDecomposer
from repro.core.planner import ConfigurationPlanner, PlannerOverride, PlanningError
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec

QUALITY_FLOOR = 0.93


@pytest.fixture(scope="module")
def graph(paper_workload):
    job = compile_spec(video_understanding_spec(), inputs=paper_workload, job_id="planner-graph")
    graph, _ = JobDecomposer().decompose(job)
    return graph


@pytest.fixture(scope="module")
def planner(profile_store, library):
    return ConfigurationPlanner(profile_store, library)


def _stats(free_gpus=16, per_model_gpus=None):
    return ResourceStatsMessage(
        timestamp=0.0,
        free_gpus=free_gpus,
        total_gpus=16,
        free_cpu_cores=192,
        total_cpu_cores=192,
        gpu_utilization=0.0,
        cpu_utilization=0.0,
        per_model_gpus=per_model_gpus or {},
        node_shapes=(("A100", 8, 96), ("H100", 8, 96)),
    )


def test_plan_covers_every_interface_in_graph(planner, graph):
    plan = planner.plan(graph, ConstraintSet(quality_floor=QUALITY_FLOOR))
    for interface in graph.interfaces():
        assert plan.assignments_for(interface)


def test_min_cost_picks_cpu_speech_to_text(planner, graph):
    """The paper: under MIN_COST Murakkab selects the CPU STT configuration."""
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    stt = plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert stt.agent_name == "whisper"
    assert stt.config.is_cpu_only


def test_min_latency_picks_gpu_speech_to_text(planner, graph):
    plan = planner.plan(graph, ConstraintSet((MIN_LATENCY,), quality_floor=QUALITY_FLOOR))
    stt = plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert stt.config.gpus >= 1


def test_quality_floor_excludes_cheaper_lower_quality_models(planner, graph):
    relaxed = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.0))
    strict = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    relaxed_stt = relaxed.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    strict_stt = strict.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert strict_stt.agent_name == "whisper"
    assert relaxed_stt.profile.cost <= strict_stt.profile.cost


def test_impossible_quality_floor_raises(planner, graph):
    with pytest.raises(PlanningError):
        planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=0.999))


def test_max_quality_constraint_prefers_best_models(planner, graph):
    plan = planner.plan(graph, ConstraintSet((MAX_QUALITY,), quality_floor=0.0))
    summarizer = plan.primary_assignment(AgentInterface.SCENE_SUMMARIZATION)
    assert summarizer.agent_name == "nvlm-summarizer"
    answerer = plan.primary_assignment(AgentInterface.QUESTION_ANSWERING)
    assert answerer.mode.speculative_paths > 1  # extra reasoning paths raise quality


def test_override_pins_configuration(planner, graph):
    overrides = {
        AgentInterface.SPEECH_TO_TEXT: PlannerOverride(
            agent_name="whisper", config=HardwareConfig(gpus=1), mode=SEQUENTIAL_MODE
        )
    }
    plan = planner.plan(
        graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR), overrides=overrides
    )
    stt = plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    assert stt.config == HardwareConfig(gpus=1)
    assert stt.max_concurrency == 1


def test_override_matching_nothing_raises(planner, graph):
    overrides = {
        AgentInterface.SPEECH_TO_TEXT: PlannerOverride(agent_name="whisper",
                                                        config=HardwareConfig(gpus=4))
    }
    with pytest.raises(PlanningError):
        planner.plan(graph, ConstraintSet(), overrides=overrides)


def test_cpu_assignments_get_concurrency_from_core_budget(planner, graph):
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    stt = plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    expected = calibration.STT_CPU_TOTAL_CORES // stt.config.cpu_cores
    assert stt.max_concurrency == max(1, expected)


def test_warm_model_preferred_when_nearly_tied(planner, graph):
    """Resource-aware orchestration: prefer already-running models."""
    cold = planner.plan(
        graph,
        ConstraintSet((MIN_COST,), quality_floor=0.0),
        cluster_stats=_stats(),
    )
    warm = planner.plan(
        graph,
        ConstraintSet((MIN_COST,), quality_floor=0.0),
        cluster_stats=_stats(per_model_gpus={"whisper": 1}),
    )
    cold_stt = cold.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    warm_stt = warm.primary_assignment(AgentInterface.SPEECH_TO_TEXT)
    # Without warmth the cheapest (possibly non-whisper) profile wins; with a
    # warm whisper instance the planner switches to it if the cost penalty is
    # within the margin, otherwise it keeps the cheapest.  Either way the
    # chosen profile must not be worse than margin x best.
    best_cost = cold_stt.profile.cost
    margin = planner.scheduling_policy.warm_preference_margin
    assert warm_stt.profile.cost <= best_cost * (1 + margin) + 1e-12


def test_unprofiled_interface_raises(library, graph):
    from repro.profiling.store import ProfileStore

    empty_planner = ConfigurationPlanner(ProfileStore(), library)
    with pytest.raises(PlanningError):
        empty_planner.plan(graph, ConstraintSet())


def test_plan_describe_and_stage_qualities(planner, graph):
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    text = plan.describe()
    assert "speech_to_text" in text
    qualities = plan.stage_qualities()
    assert all(0.0 < q <= 1.0 for q in qualities.values())
    assert set(qualities) == {i.value for i in graph.interfaces()}


def test_gpu_assignments_listed_for_server_deployment(planner, graph):
    plan = planner.plan(graph, ConstraintSet((MIN_COST,), quality_floor=QUALITY_FLOOR))
    gpu_agents = {a.agent_name for a in plan.gpu_assignments()}
    assert "nvlm-summarizer" in gpu_agents
    assert "nvlm-embedder" in gpu_agents


def test_rank_candidates_sorted_by_objective(planner):
    ranked = planner.rank_candidates(
        AgentInterface.SPEECH_TO_TEXT, ConstraintSet((MIN_LATENCY,), quality_floor=0.0)
    )
    latencies = [p.latency_s for p in ranked]
    assert latencies == sorted(latencies)


def test_planner_rejects_bad_core_budget(profile_store, library):
    with pytest.raises(ValueError):
        ConfigurationPlanner(profile_store, library, max_cpu_cores_per_agent=0)
