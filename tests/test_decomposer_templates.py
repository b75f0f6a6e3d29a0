"""Decomposition templates: a stamped job is indistinguishable from a fresh one.

A :class:`~repro.core.decomposer.JobDecomposer` compiles each distinct job
once and stamps later identical jobs from that template.  These tests hold
the stamps to the from-scratch decomposition field by field, and the served
results to the unoptimized reference runtime, which decomposes every job
from scratch through a networkx-backed graph.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.unoptimized import UncachedTaskGraph, unoptimized_runtime
from repro.core.constraints import Constraint
from repro.core.decomposer import JobDecomposer
from repro.core.job import Job
from repro.core.runtime import MurakkabRuntime
from repro.core.task import TaskState
from repro.loadgen import default_registry

_REGISTRY = default_registry()
_CONSTRAINTS = (None, "min_latency", "min_energy", "min_cost")
_QUALITIES = (None, 0.9)


def _job(workload, job_id, constraint, quality):
    job = _REGISTRY.build(workload, job_id)
    changes = {}
    if constraint is not None:
        changes["constraints"] = Constraint(constraint)
    if quality is not None:
        changes["quality_target"] = quality
    return dataclasses.replace(job, **changes)


def _graph_view(graph):
    """Everything a decomposition determines, minus execution state."""
    tasks = list(graph)
    return {
        "workflow_id": graph.workflow_id,
        "tasks": [
            (
                t.task_id,
                t.description,
                t.interface,
                t.work.kind,
                t.work.quantity,
                t.work.payload,
                t.stage,
                t.metadata,
            )
            for t in tasks
        ],
        "edges": graph.edges(),
        "pred": {t.task_id: [p.task_id for p in graph.predecessors(t.task_id)] for t in tasks},
        "topo": [t.task_id for t in graph.topological_order()],
        "stages": graph.stage_order(),
    }


def _result_view(result):
    return {
        "job_id": result.job_id,
        "output": result.output,
        "task_results": result.task_results,
        "makespan_s": result.makespan_s,
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "energy": result.energy,
        "cost": result.cost,
        "quality": result.quality,
        "plan": result.plan.describe(),
        "trace": [
            (i.task_id, i.task_name, i.start, i.end, i.node_id, tuple(i.gpu_ids), i.cpu_cores)
            for i in result.trace
        ],
        "provisioned_gpus": result.provisioned_gpus,
        "react_trace": result.react_trace,
        "graph": _graph_view(result.graph),
    }


@pytest.mark.parametrize("quality", _QUALITIES)
@pytest.mark.parametrize("constraint", _CONSTRAINTS)
@pytest.mark.parametrize("workload", _REGISTRY.names())
def test_stamped_jobs_match_fresh_decomposition_and_reference(workload, constraint, quality):
    optimized = MurakkabRuntime()
    reference = unoptimized_runtime()
    served = []
    for job_id in ("tpl-1", "tpl-2", "tpl-3"):
        result = optimized.submit(_job(workload, job_id, constraint, quality))
        expected = reference.submit(_job(workload, job_id, constraint, quality))
        assert isinstance(expected.graph, UncachedTaskGraph)
        assert _result_view(result) == _result_view(expected)
        served.append(result)
    first, second, third = served
    # The first sighting is decomposed from scratch; its repeats are stamped
    # from one template (they share its trace) ...
    assert second.react_trace is third.react_trace is not first.react_trace
    llm = optimized.orchestrator.decomposer.orchestrator_llm
    for result in (second, third):
        # ... yet equal a from-scratch decomposition, with their own tasks.
        fresh, fresh_trace = JobDecomposer(llm).decompose_fresh(
            _job(workload, result.job_id, constraint, quality)
        )
        assert _graph_view(result.graph) == _graph_view(fresh)
        assert result.react_trace == fresh_trace
    task_ids = [{id(t) for t in result.graph} for result in served]
    assert not (task_ids[0] & task_ids[1] or task_ids[1] & task_ids[2])


def test_completing_one_job_never_touches_another():
    decomposer = JobDecomposer()
    graphs = [
        decomposer.decompose(_REGISTRY.build("video-understanding", f"iso-{n}"))[0]
        for n in range(3)
    ]
    for graph in graphs[:2]:  # one fresh decomposition, one stamp
        for task in graph.topological_order():
            task.mark(TaskState.READY)
            task.mark(TaskState.RUNNING)
            task.started_at, task.finished_at = 1.0, 2.0
            task.mark(TaskState.COMPLETED)
    later = decomposer.decompose(_REGISTRY.build("video-understanding", "iso-3"))[0]
    for graph in (graphs[2], later):
        assert all(t.state is TaskState.PENDING and t.started_at is None for t in graph)
        assert all(
            p.state is TaskState.PENDING
            for t in graph
            for p in graph.predecessors(t.task_id)
        )
        assert [t.task_id for t in graph.ready_tasks()] == [
            t.task_id for t in graph.roots()
        ]


def _posts():
    return [{"id": f"p{n}", "text": f"post number {n} is great"} for n in range(3)]


_MOOD = "Classify the sentiment of each post and summarize the overall mood"


def _stamped(decomposer, job):
    """Decompose ``job`` and check it against a from-scratch decomposition."""
    graph, trace = decomposer.decompose(job)
    fresh, fresh_trace = JobDecomposer().decompose_fresh(job)
    assert trace == fresh_trace
    assert _graph_view(graph) == _graph_view(fresh)
    return graph, trace


def test_mutating_hand_built_inputs_decomposes_afresh():
    items = _posts()
    job = Job(description=_MOOD, inputs=items, job_id="hand-1")
    decomposer = JobDecomposer()
    first, _ = _stamped(decomposer, job)
    _, template_trace = _stamped(decomposer, dataclasses.replace(job, job_id="hand-2"))

    # Edit the caller-owned inputs in place: new content, a fresh decomposition.
    items[0]["text"] = "post number 0 is terrible"
    items.append({"id": "p3", "text": "a fourth post"})
    edited, edited_trace = _stamped(decomposer, dataclasses.replace(job, job_id="hand-3"))
    assert edited_trace is not template_trace
    assert len(edited) > len(first)

    # The original content still stamps from its template, which the
    # in-place edit above must not have reached.
    original = Job(description=_MOOD, inputs=_posts(), job_id="hand-4")
    _, original_trace = _stamped(decomposer, original)
    assert original_trace is template_trace


def test_template_memo_is_bounded_fifo(monkeypatch):
    monkeypatch.setattr(JobDecomposer, "_MEMO_MAX", 2)
    decomposer = JobDecomposer()
    jobs = [
        Job(description=d, inputs=["one post"], job_id=f"m{n}")
        for n, d in enumerate(
            [
                "Classify the sentiment of each post",
                "Summarize each post",
                "Answer a question about each post",
            ]
        )
    ]
    for job in jobs:
        decomposer.decompose(job)
    keys = [decomposer._template_key(job) for job in jobs]
    assert list(decomposer._templates) == keys[1:]


def test_unpicklable_inputs_are_never_memoized():
    decomposer = JobDecomposer()
    job = Job(
        description="Classify the sentiment of each post",
        inputs=[{"id": "p0", "text": "fine", "hook": lambda: None}],
        job_id="lambda-1",
    )
    first = decomposer.decompose(job)[1]
    second = decomposer.decompose(dataclasses.replace(job, job_id="lambda-2"))[1]
    assert second is not first and second == first
    assert not decomposer._templates
