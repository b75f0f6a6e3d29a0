"""Unit tests for job decomposition into task graphs."""

import pytest

from repro import calibration
from repro.agents.base import AgentInterface
from repro.core.decomposer import JobDecomposer, _looks_like_video, _normalise_inputs
from repro.core.job import Job
from repro.spec import compile_spec
from repro.workflows.document_qa import document_qa_spec
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.video import generate_videos


@pytest.fixture(scope="module")
def decomposer():
    return JobDecomposer()


def test_looks_like_video_detection():
    assert _looks_like_video("cats.mov")
    assert _looks_like_video("clip.MP4")
    assert not _looks_like_video("report.pdf")
    assert not _looks_like_video(42)


def test_normalise_inputs_materialises_named_videos():
    videos, items = _normalise_inputs(["cats.mov", {"id": "post-1", "text": "hello"}])
    assert len(videos) == 1 and videos[0]["name"] == "cats.mov"
    assert len(items) == 1 and items[0]["id"] == "post-1"


def test_video_job_expands_per_video_and_per_scene(decomposer, paper_workload):
    job = compile_spec(video_understanding_spec(), inputs=paper_workload, job_id="decomp-test")
    graph, trace = decomposer.decompose(job)
    counts = graph.counts_by_interface()
    scenes = calibration.VIDEO_COUNT * calibration.SCENES_PER_VIDEO
    assert counts[AgentInterface.FRAME_EXTRACTION] == calibration.VIDEO_COUNT
    assert counts[AgentInterface.SPEECH_TO_TEXT] == scenes
    assert counts[AgentInterface.OBJECT_DETECTION] == scenes
    assert counts[AgentInterface.SCENE_SUMMARIZATION] == scenes
    assert counts[AgentInterface.EMBEDDING] == scenes
    assert counts[AgentInterface.VECTOR_DB] == 1
    assert counts[AgentInterface.QUESTION_ANSWERING] == 1
    assert trace.latency_s > 0


def test_scene_tasks_depend_on_their_own_videos_extraction(decomposer, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="scene-deps")
    graph, _ = decomposer.decompose(job)
    for task in graph.tasks_by_interface(AgentInterface.SPEECH_TO_TEXT):
        predecessors = graph.predecessors(task.task_id)
        assert len(predecessors) == 1
        assert predecessors[0].interface is AgentInterface.FRAME_EXTRACTION
        assert predecessors[0].metadata["video"] == task.metadata["video"]


def test_summarization_depends_on_same_scene_stt_and_detection(decomposer, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="sum-deps")
    graph, _ = decomposer.decompose(job)
    for task in graph.tasks_by_interface(AgentInterface.SCENE_SUMMARIZATION):
        predecessor_interfaces = {p.interface for p in graph.predecessors(task.task_id)}
        assert AgentInterface.SPEECH_TO_TEXT in predecessor_interfaces
        assert AgentInterface.OBJECT_DETECTION in predecessor_interfaces
        for predecessor in graph.predecessors(task.task_id):
            if "scene_id" in predecessor.metadata:
                assert predecessor.metadata["scene_id"] == task.metadata["scene_id"]
            else:
                # Per-video producers (frame extraction) must match the video.
                assert predecessor.metadata["video"] == task.metadata["video"]


def test_vector_db_fans_in_from_all_embeddings(decomposer, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="fanin")
    graph, _ = decomposer.decompose(job)
    vector_db = graph.tasks_by_interface(AgentInterface.VECTOR_DB)[0]
    predecessors = graph.predecessors(vector_db.task_id)
    assert len(predecessors) == len(graph.tasks_by_interface(AgentInterface.EMBEDDING))
    answer = graph.tasks_by_interface(AgentInterface.QUESTION_ANSWERING)[0]
    assert [p.task_id for p in graph.predecessors(answer.task_id)] == [vector_db.task_id]


def test_string_inputs_work_like_listing2(decomposer):
    job = Job(
        description="List objects shown/mentioned in the videos",
        inputs=["cats.mov", "formula_1.mov"],
        tasks=compile_spec(video_understanding_spec()).tasks,
        job_id="strings",
    )
    graph, _ = decomposer.decompose(job)
    assert len(graph.tasks_by_interface(AgentInterface.FRAME_EXTRACTION)) == 2


def test_newsfeed_job_expands_per_post(decomposer):
    job = compile_spec(newsfeed_spec(), job_id="feed")
    graph, _ = decomposer.decompose(job)
    sentiment_tasks = graph.tasks_by_interface(AgentInterface.SENTIMENT_ANALYSIS)
    assert len(sentiment_tasks) == len(job.inputs)
    generation = graph.tasks_by_interface(AgentInterface.TEXT_GENERATION)
    assert len(generation) == 1
    assert len(graph.predecessors(generation[0].task_id)) == len(sentiment_tasks)


def test_document_qa_job_builds_retrieval_chain(decomposer):
    job = compile_spec(document_qa_spec(), job_id="docs")
    graph, _ = decomposer.decompose(job)
    counts = graph.counts_by_interface()
    assert counts[AgentInterface.EMBEDDING] == len(job.inputs)
    assert counts[AgentInterface.VECTOR_DB] == 1
    assert counts[AgentInterface.QUESTION_ANSWERING] == 1
    vector_db = graph.tasks_by_interface(AgentInterface.VECTOR_DB)[0]
    assert len(graph.predecessors(vector_db.task_id)) == len(job.inputs)


def test_task_ids_are_namespaced_by_job(decomposer, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="my-job")
    graph, _ = decomposer.decompose(job)
    assert all(task.task_id.startswith("my-job/") for task in graph)


def test_decomposition_graph_is_valid_dag(decomposer, videos):
    job = compile_spec(video_understanding_spec(), inputs=videos, job_id="valid")
    graph, _ = decomposer.decompose(job)
    graph.validate()
    order = [t.task_id for t in graph.topological_order()]
    position = {task_id: index for index, task_id in enumerate(order)}
    for upstream, downstream in graph.edges():
        assert position[upstream] < position[downstream]
