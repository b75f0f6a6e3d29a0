"""The Video Understanding workflow (paper §2, §4; derived from OmAgent).

Two forms are provided:

* :func:`video_understanding_spec` — the declarative, serializable
  :class:`WorkflowSpec` form ("List objects shown/mentioned in the videos",
  the Listing-2 sub-task hints as declared stages, a constraint block);
  ``compile_spec(video_understanding_spec(), inputs=videos)`` lowers it to
  a job over a caller's own videos;
* :func:`omagent_imperative_workflow` — the imperative Listing-1 form used as
  the baseline, with every model, resource amount, and hyperparameter pinned
  (OpenCV on CPUs, Whisper on one GPU, CLIP on CPUs, NVLM on 8 GPUs for text
  and 2 GPUs for embeddings, plus the VectorDB insertion and the final
  question-answering step from the paper's §4 setup).
"""

from __future__ import annotations

from typing import Optional, Union

from repro import calibration
from repro.agents.base import AgentInterface
from repro.core.constraints import Constraint, ConstraintSet, MIN_COST
from repro.spec import WorkflowBuilder, WorkflowSpec
from repro.workflows.imperative import ImperativeWorkflow, LLM, MLModel, Tool

#: Quality floor used throughout the paper-reproduction experiments: high
#: enough that the planner keeps the paper's model choices (Whisper, NVLM),
#: low enough that every stage has at least one feasible implementation.
PAPER_QUALITY_TARGET = 0.93

#: The paper's job description (Listing 2, line 2).
PAPER_JOB_DESCRIPTION = "List objects shown/mentioned in the videos"

#: The paper's optional sub-task hints (Listing 2, lines 4-6).
PAPER_TASK_HINTS = (
    "Extract frames from each video",
    "Run speech-to-text on all scenes",
    "Detect objects in the frames",
)


def video_understanding_spec(
    constraints: Union[Constraint, ConstraintSet] = MIN_COST,
    quality_target: float = PAPER_QUALITY_TARGET,
    description: str = PAPER_JOB_DESCRIPTION,
    video_count: Optional[int] = None,
) -> WorkflowSpec:
    """The declarative Video Understanding spec (paper Listing 2).

    The three declared stages are the paper's optional sub-task hints; the
    orchestrator derives the rest of the pipeline (scene summarisation,
    embeddings, the vector index, and the final answer) exactly as it does
    for the hand-written job.
    """
    builder = (
        WorkflowBuilder("video-understanding")
        .describe(description)
        .inputs("videos", count=video_count)
        .stage("frame_extraction", PAPER_TASK_HINTS[0])
        .then("speech_to_text", PAPER_TASK_HINTS[1])
        .stage("object_detection", PAPER_TASK_HINTS[2], after=("frame_extraction",))
        .constraints(ConstraintSet.of(constraints))
    )
    # A falsy quality_target defers to the constraint set's own floor, as
    # the legacy factory's ConstraintSet.of(constraints, quality_target) did.
    if quality_target:
        builder.quality(quality_target)
    return builder.build()


def omagent_imperative_workflow(name: str = "omagent-baseline") -> ImperativeWorkflow:
    """The imperative baseline workflow (paper Listing 1 + §4 setup)."""
    frame_ext = Tool(
        name="OpenCV",
        params={"sampling_rate": 15},
        key="ON_PREM_SSH_KEY",
        resources={"CPUs": calibration.FRAME_EXTRACT_CPU_CORES},
    )
    stt = MLModel(
        name="Whisper",
        key="OPENAI_API_KEY",
        resources={"GPUs": 1},
    )
    obj_det = MLModel(
        name="CLIP",
        key="AWS_SSH_KEY",
        interface=AgentInterface.OBJECT_DETECTION,
        resources={"CPUs": calibration.OBJECT_DETECTION_CPU_CORES},
    )
    summarize = LLM(
        name="NVLM",
        key="DATABRICKS_API_KEY",
        params={"context_len": 4096},
        resources={"GPUs": calibration.SUMMARIZE_GPUS, "GPU_Type": "A100"},
        system_prompt="You are an agent that can describe images in detail.",
        user_prompt="Summarize the scenes using frames, detected objects and transcripts.",
    )
    embed = LLM(
        name="NVLM-Embeddings",
        interface=AgentInterface.EMBEDDING,
        implementation="nvlm-embedder",
        resources={"GPUs": calibration.EMBEDDING_GPUS},
    )
    vectordb = Tool(
        name="VectorDB",
        interface=AgentInterface.VECTOR_DB,
        implementation="vector-db",
        resources={"CPUs": 1},
    )
    answer = LLM(
        name="NVLM-QA",
        interface=AgentInterface.QUESTION_ANSWERING,
        implementation="nvlm-answerer",
        resources={"GPUs": calibration.SUMMARIZE_GPUS},
    )
    return ImperativeWorkflow(
        [frame_ext, stt, obj_det, summarize, embed, vectordb, answer],
        name=name,
    )
