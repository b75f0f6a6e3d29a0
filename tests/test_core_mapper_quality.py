"""Unit tests for task-to-agent mapping and workflow quality estimation."""

import pytest

from repro.agents.base import AgentInterface, WorkUnit
from repro.agents.library import AgentLibrary
from repro.agents.speech_to_text import WhisperSTT
from repro.core.decomposer import JobDecomposer
from repro.core.mapper import TaskAgentMapper
from repro.core.quality import (
    cascade_quality,
    extract_listed_objects,
    most_impactful_stage,
    score_object_listing_answer,
    token_recall,
)
from repro.core.task import Task
from repro.spec import compile_spec
from repro.workflows.video_understanding import video_understanding_spec


@pytest.fixture(scope="module")
def mapper(library):
    return TaskAgentMapper(library)


@pytest.fixture(scope="module")
def graph(videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="mapper-graph")
    graph, _ = JobDecomposer().decompose(job)
    return graph


def test_candidates_found_for_every_task(mapper, graph):
    for task in graph:
        candidates = mapper.candidates(task)
        assert candidates
        assert all(c.interface is task.interface for c in candidates)


def test_candidates_missing_interface_raises():
    mapper = TaskAgentMapper(AgentLibrary([WhisperSTT()]))
    task = Task(
        task_id="t",
        description="detect objects",
        interface=AgentInterface.OBJECT_DETECTION,
        work=WorkUnit(kind="scene"),
    )
    with pytest.raises(LookupError):
        mapper.candidates(task)


def test_tool_call_for_scene_task_carries_video_metadata(mapper, graph, library):
    stt_task = graph.tasks_by_interface(AgentInterface.SPEECH_TO_TEXT)[0]
    call = mapper.tool_call(stt_task, library.get("whisper"))
    assert call.agent_name == "whisper"
    assert call.kwargs.get("language") == "en"


def test_tool_call_for_video_task_uses_file_name(mapper, graph, library):
    video_task = graph.tasks_by_interface(AgentInterface.FRAME_EXTRACTION)[0]
    call = mapper.tool_call(video_task, library.get("opencv-frame-extractor"))
    assert str(call.kwargs.get("file", "")).endswith(".mov")


def test_map_graph_emits_one_call_per_task(mapper, graph):
    chosen = {interface: None for interface in graph.interfaces()}
    chosen[AgentInterface.SPEECH_TO_TEXT] = "whisper"
    calls = mapper.map_graph(graph, {AgentInterface.SPEECH_TO_TEXT: "whisper"})
    assert set(calls) == {task.task_id for task in graph}


# --------------------------------------------------------------------------- #
# Quality model
# --------------------------------------------------------------------------- #
def test_cascade_quality_is_product():
    assert cascade_quality({"a": 0.9, "b": 0.8}) == pytest.approx(0.72)
    assert cascade_quality({}) == 0.0
    with pytest.raises(ValueError):
        cascade_quality({"a": 1.3})


def test_cascade_quality_never_exceeds_weakest_stage():
    stages = {"stt": 0.96, "summarize": 0.97, "detect": 0.93}
    assert cascade_quality(stages) <= min(stages.values())


def test_most_impactful_stage_is_lowest_quality():
    assert most_impactful_stage({"stt": 0.96, "detect": 0.80}) == "detect"
    with pytest.raises(ValueError):
        most_impactful_stage({})


def test_score_object_listing_answer_recall():
    answer = "Objects shown or mentioned: cat, racing car, helmet."
    assert score_object_listing_answer(answer, ["cat", "helmet"]) == 1.0
    assert score_object_listing_answer(answer, ["cat", "zebra"]) == 0.5
    assert score_object_listing_answer(answer, []) == 1.0


def test_token_recall():
    assert token_recall(["The", "cat"], ["cat", "dog"]) == 0.5
    assert token_recall([], []) == 1.0


def test_extract_listed_objects():
    answer = "Objects shown or mentioned: cat, racing car, helmet."
    assert extract_listed_objects(answer) == ("cat", "racing car", "helmet")
    assert extract_listed_objects("no colon here") == ()
