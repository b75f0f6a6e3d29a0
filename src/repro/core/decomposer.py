"""Job decomposition: from a declarative job to a task DAG.

The decomposer asks the (simulated) orchestrator LLM for the stage-level
decomposition of the job description, then expands each stage over the job's
inputs (one frame-extraction task per video, one transcription /
summarisation task per scene, one sentiment task per post, a single vector
database insertion, a single final answer, ...), and wires dataflow
dependencies between tasks at matching granularity.

Each decomposer compiles every *distinct* job once.  A bounded FIFO memo on
the decomposer remembers each job content it has seen: description, task
hints, constraint description and inputs.  When the same content comes
again, it is decomposed, wired, validated and topologically sorted one last
time into a template.  That job and every later one with the same content
get a *stamp* of the template: fresh :class:`Task` objects and a
:meth:`TaskGraph.stamp` of its structure.  Content seen only once costs
just its key, so a stream of distinct jobs builds no templates.

The job id lives in exactly three places, and a stamp rewrites exactly
those: the task ids (``{job_id}/{stage}/{n}``), the graph's
``workflow_id``, and the ``collection`` payload of the vector-database and
question-answering tasks.  A stamp shares only data nothing mutates: work
payloads that hold no job id, task ``metadata``, and the orchestrator LLM's
``ReActTrace``.

The memo keys on content, never on object identity, because ``Job.inputs``
is a caller-owned mutable sequence.  The inputs enter the key as their
pickled bytes: type-exact (a tuple is not a list, ``1`` is not ``"1"``) and
insertion-ordered, so equal keys mean inputs that decompose identically.
A template is decomposed from a private copy of the inputs, unpickled from
the key, so a later in-place edit by the caller cannot leak into it.
Inputs pickle cannot encode are decomposed afresh every time.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.agents.base import AgentInterface, WorkUnit
from repro.core.dag import TaskGraph
from repro.core.job import Job
from repro.core.task import Task
from repro.llm.orchestrator_llm import DecomposedTask, OrchestratorLLM, ReActTrace
from repro.workloads.video import SyntheticVideo, generate_videos

_VIDEO_EXTENSIONS = (".mov", ".mp4", ".avi", ".mkv", ".webm")


def _looks_like_video(value: object) -> bool:
    return isinstance(value, str) and value.lower().endswith(_VIDEO_EXTENSIONS)


def _normalise_inputs(inputs: Sequence[object]) -> Tuple[List[dict], List[dict]]:
    """Split job inputs into video payloads and generic item payloads.

    String inputs that look like video files (the Listing-2 style
    ``["cats.mov", "formula_1.mov"]``) are materialised as synthetic videos
    with the paper's scene/frame statistics.
    """
    video_names = [value for value in inputs if _looks_like_video(value)]
    videos: List[dict] = []
    if video_names:
        videos.extend(v.as_payload() for v in generate_videos(count=len(video_names), names=video_names))
    items: List[dict] = []
    for value in inputs:
        if _looks_like_video(value):
            continue
        if isinstance(value, SyntheticVideo):
            videos.append(value.as_payload())
        elif isinstance(value, dict) and "scenes" in value:
            videos.append(value)
        elif isinstance(value, dict):
            items.append(value)
        else:
            items.append({"text": str(value)})
    return videos, items


#: Interfaces whose "once" payload names the job's own vector collection.
_COLLECTION_INTERFACES = (AgentInterface.VECTOR_DB, AgentInterface.QUESTION_ANSWERING)


class _Template(NamedTuple):
    """One compiled job: a private graph (its tasks are never handed out)
    and the decomposition trace every stamp shares."""

    graph: TaskGraph
    trace: ReActTrace

    def stamp(self, job_id: str) -> TaskGraph:
        """The template retargeted to job ``job_id``, on fresh tasks."""
        old_id = self.graph.workflow_id
        cut = len(old_id)
        tasks = []
        for task in self.graph:
            work = task.work
            if task.interface in _COLLECTION_INTERFACES and "collection" in work.payload:
                work = WorkUnit(
                    kind=work.kind,
                    quantity=work.quantity,
                    payload={**work.payload, "collection": job_id},
                )
            tasks.append(
                Task(
                    task_id=job_id + task.task_id[cut:],
                    description=task.description,
                    interface=task.interface,
                    work=work,
                    stage=task.stage,
                    metadata=task.metadata,
                )
            )
        return self.graph.stamp(old_id, job_id, tasks)


class JobDecomposer:
    """Expands a :class:`~repro.core.job.Job` into a :class:`TaskGraph`."""

    #: Class used to build task graphs (swapped by the unoptimized
    #: reference path in repro.baselines.unoptimized).
    graph_factory = TaskGraph

    #: FIFO bound on the per-decomposer template memo.
    _MEMO_MAX = 256

    def __init__(self, orchestrator_llm: Optional[OrchestratorLLM] = None) -> None:
        self.orchestrator_llm = orchestrator_llm or OrchestratorLLM()
        #: content key -> template, or ``None`` for content seen only once.
        self._templates: Dict[tuple, Optional[_Template]] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def decompose(self, job: Job) -> Tuple[TaskGraph, ReActTrace]:
        """The task graph for ``job`` and the LLM trace, stamped from a
        template once the same content has been seen before."""
        key = self._template_key(job)
        if key is None:
            return self.decompose_fresh(job)
        if key not in self._templates:
            # First sighting: remember the content and compile on its first
            # repeat, so a stream of distinct jobs pays only for the key.
            self._remember(key, None)
            return self.decompose_fresh(job)
        template = self._templates[key]
        if template is None:
            template = self._templates[key] = self._compile(job, key[-1])
        return template.stamp(job.job_id), template.trace

    def _compile(self, job: Job, pickled_inputs: bytes) -> _Template:
        # Template payloads outlive the job, so they must not alias the
        # caller's inputs (which it may edit later): decompose a private
        # copy of the inputs exactly as they were keyed.
        private = dataclasses.replace(job, inputs=pickle.loads(pickled_inputs))
        graph, trace = self.decompose_fresh(private)
        graph.stage_order()  # cached, so every stamp inherits it
        return _Template(graph, trace)

    def _template_key(self, job: Job) -> Optional[tuple]:
        try:
            inputs = pickle.dumps(job.inputs, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return None  # inputs pickle cannot encode are never memoized
        return (
            job.description,
            tuple(job.tasks),
            job.constraint_set().describe(),
            inputs,
        )

    def _remember(self, key: tuple, template: Optional[_Template]) -> None:
        if len(self._templates) >= self._MEMO_MAX:
            self._templates.pop(next(iter(self._templates)))
        self._templates[key] = template

    def decompose_fresh(self, job: Job) -> Tuple[TaskGraph, ReActTrace]:
        """Decompose ``job`` from scratch, bypassing the template memo."""
        videos, items = _normalise_inputs(job.inputs)
        input_names = [v["name"] for v in videos] + [
            str(item.get("id", item.get("text", "item"))) for item in items
        ]
        stages, trace = self.orchestrator_llm.decompose(
            description=job.description,
            task_hints=job.tasks,
            inputs=input_names,
            constraint=job.constraint_set().describe(),
        )
        graph = self.expand_stages(job, stages)
        return graph, trace

    def expand_stages(self, job: Job, stages: Sequence[DecomposedTask]) -> TaskGraph:
        """Expand stage-level decomposition over the job's inputs into a DAG.

        Also used by the imperative (Listing-1 style) workflow API, which
        defines its stages explicitly instead of asking the orchestrator LLM.
        """
        videos, items = _normalise_inputs(job.inputs)
        graph = self.graph_factory(workflow_id=job.job_id)
        stage_tasks: Dict[str, List[Task]] = {}
        counter = itertools.count()
        for stage in stages:
            tasks = self._expand_stage(job, stage, videos, items, counter)
            for task in tasks:
                graph.add_task(task)
            stage_tasks[stage.name] = tasks
        for stage in stages:
            for upstream_name in stage.depends_on:
                self._wire(graph, stage_tasks.get(upstream_name, []), stage_tasks[stage.name])
        graph.validate()
        return graph

    # ------------------------------------------------------------------ #
    # Stage expansion
    # ------------------------------------------------------------------ #
    def _expand_stage(
        self,
        job: Job,
        stage: DecomposedTask,
        videos: List[dict],
        items: List[dict],
        counter,
    ) -> List[Task]:
        scenes = [scene for video in videos for scene in video.get("scenes", [])]
        granularity = stage.granularity
        if granularity == "per_scene" and not scenes:
            granularity = "per_item" if items else "once"
        if granularity == "per_video" and not videos:
            granularity = "once"
        if granularity == "per_item" and not items:
            granularity = "once"

        make_id = lambda: f"{job.job_id}/{stage.name}/{next(counter)}"  # noqa: E731

        if granularity == "per_video":
            return [
                Task(
                    task_id=make_id(),
                    description=f"{stage.description} [{video['name']}]",
                    interface=stage.interface,
                    work=WorkUnit(kind="video", quantity=1.0, payload={"video": video}),
                    stage=stage.name,
                    metadata={"video": video["name"]},
                )
                for video in videos
            ]
        if granularity == "per_scene":
            return [
                Task(
                    task_id=make_id(),
                    description=f"{stage.description} [{scene['id']}]",
                    interface=stage.interface,
                    work=WorkUnit(kind="scene", quantity=1.0, payload={"scene": scene}),
                    stage=stage.name,
                    metadata={"scene_id": scene["id"], "video": scene["video"]},
                )
                for scene in scenes
            ]
        if granularity == "per_item":
            return [
                Task(
                    task_id=make_id(),
                    description=f"{stage.description} [{item.get('id', index)}]",
                    interface=stage.interface,
                    work=WorkUnit(
                        kind="item",
                        quantity=1.0,
                        payload={"item": item, "texts": [str(item.get("text", item))]},
                    ),
                    stage=stage.name,
                    metadata={"item_id": str(item.get("id", index))},
                )
                for index, item in enumerate(items)
            ]
        if granularity == "per_query":
            return [
                Task(
                    task_id=make_id(),
                    description=stage.description,
                    interface=stage.interface,
                    work=WorkUnit(
                        kind="query",
                        quantity=1.0,
                        payload={"query": job.description, "top_k": 3},
                    ),
                    stage=stage.name,
                    metadata={},
                )
            ]
        # "once" stages.
        payload, quantity = self._once_payload(job, stage, scenes, items)
        return [
            Task(
                task_id=make_id(),
                description=stage.description,
                interface=stage.interface,
                work=WorkUnit(kind="batch", quantity=quantity, payload=payload),
                stage=stage.name,
                metadata={},
            )
        ]

    def _once_payload(
        self,
        job: Job,
        stage: DecomposedTask,
        scenes: List[dict],
        items: List[dict],
    ) -> Tuple[dict, float]:
        unit_count = float(max(len(scenes) or len(items), 1))
        if stage.interface is AgentInterface.VECTOR_DB:
            return (
                {"operation": "insert", "collection": job.job_id},
                unit_count,
            )
        if stage.interface is AgentInterface.QUESTION_ANSWERING:
            return (
                {"question": job.description, "collection": job.job_id, "top_k": 5},
                1.0,
            )
        if stage.interface is AgentInterface.TEXT_GENERATION:
            return ({"prompt": job.description}, 1.0)
        if stage.interface is AgentInterface.CALCULATION:
            expression = next(
                (str(item.get("expression")) for item in items if "expression" in item),
                "0",
            )
            return ({"expression": expression}, 1.0)
        return ({"description": stage.description}, unit_count)

    # ------------------------------------------------------------------ #
    # Dependency wiring
    # ------------------------------------------------------------------ #
    def _wire(
        self, graph: TaskGraph, upstream: List[Task], downstream: List[Task]
    ) -> None:
        """Connect two stages' task lists at matching granularity."""
        if not upstream or not downstream:
            return
        for consumer in downstream:
            producers = self._matching_producers(upstream, consumer)
            for producer in producers:
                graph.add_dependency(producer.task_id, consumer.task_id)

    @staticmethod
    def _matching_producers(upstream: List[Task], consumer: Task) -> List[Task]:
        scene_id = consumer.metadata.get("scene_id")
        video = consumer.metadata.get("video")
        item_id = consumer.metadata.get("item_id")
        # Same-scene producers take precedence, then same-video, then same-item.
        if scene_id is not None:
            same_scene = [t for t in upstream if t.metadata.get("scene_id") == scene_id]
            if same_scene:
                return same_scene
        if video is not None:
            same_video = [t for t in upstream if t.metadata.get("video") == video]
            if same_video:
                return same_video
        if item_id is not None:
            same_item = [t for t in upstream if t.metadata.get("item_id") == item_id]
            if same_item:
                return same_item
        # Fall back to depending on every upstream task (fan-in).
        return list(upstream)
