"""The job dataflow runs at job completion and is memoized per distinct job.

Agent outputs never feed a schedule, so the executor records completions
and computes (or replays) each job's outputs once, when its last task
completes.  These tests hold that premise, and hold every replayed result
to the reference oracle's eager dataflow, which composes and executes each
agent as its task completes.
"""

from __future__ import annotations

import copy

import pytest

from repro.agents.base import SEQUENTIAL_MODE, AgentResult
from repro.agents.library import AgentLibrary, default_library
from repro.agents.question_answering import LlamaAnswerer, NvlmAnswerer, _BaseAnswerer
from repro.agents.sentiment import DistilBertSentiment
from repro.baselines.unoptimized import RescanWorkflowExecutor, unoptimized_runtime
from repro.client import MurakkabClient
from repro.cluster.cluster import Cluster
from repro.cluster.dynamics import DynamicsConfig, FailureModel, NodeFailure
from repro.cluster.node import Node
from repro.core.constraints import Constraint
from repro.core.dataflow import JobDataflow, _same, dataflow_memo_info
from repro.core.runtime import MurakkabRuntime
from repro.loadgen import default_registry
from repro.profiling.profiler import clear_default_profile_store_cache
from repro.spec.compiler import compile_spec
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.video import generate_videos
from tests.schedule_cases import (
    FIDELITY_ADMISSION,
    WORKFLOWS,
    _CountingAllocations,
    _intervals,
)

_REGISTRY = default_registry()
_COMBINATIONS = [
    (workflow, constraint, quality)
    for workflow in WORKFLOWS
    for constraint in (None, "min_latency", "min_energy", "min_cost")
    for quality in (None, 0.9)
]


def _dataflow(result):
    """What the dataflow decides about a job: output, task results (values
    and insertion order) and quality."""
    return result.output, list(result.task_results.items()), result.quality


def _assert_same_dataflow(result, reference):
    output, tasks, quality = _dataflow(result)
    ref_output, ref_tasks, ref_quality = _dataflow(reference)
    assert _same(output, ref_output)
    assert [task_id for task_id, _ in tasks] == [task_id for task_id, _ in ref_tasks]
    for (task_id, got), (_, want) in zip(tasks, ref_tasks):
        assert _same(got, want), task_id
    assert quality == ref_quality


def _eager_runtime(**options) -> MurakkabRuntime:
    """A runtime whose executors compose and execute agents eagerly."""
    runtime = MurakkabRuntime(**options)
    runtime.executor_class = RescanWorkflowExecutor
    return runtime


# --------------------------------------------------------------------- #
# The premise: no schedule reads an output
# --------------------------------------------------------------------- #


def _empty_execute(self, work, config, mode=SEQUENTIAL_MODE):
    return AgentResult(agent_name=self.name, interface=self.interface, quality=self.quality)


@pytest.fixture
def empty_outputs(monkeypatch):
    """Call to make every default agent's ``execute`` return no output."""

    def apply():
        for implementation in {type(impl) for impl in _library_implementations()}:
            monkeypatch.setattr(implementation, "execute", _empty_execute)

    return apply


def _library_implementations():
    library = default_library()
    return [library.get(name) for name in library.names()]


def _single_schedules(make_runtime):
    schedules = []
    with _CountingAllocations() as allocations:
        for workflow in WORKFLOWS:
            runtime = make_runtime()
            result = runtime.submit(_REGISTRY.build(workflow, f"solo-{workflow}"))
            schedules.append(
                (
                    _intervals(result.trace, result.job_id),
                    runtime.engine.events_fired,
                    result.energy,
                    result.makespan_s,
                    result.cost,
                )
            )
    return schedules, allocations.calls


@pytest.mark.parametrize("make_runtime", [MurakkabRuntime, unoptimized_runtime])
def test_single_submissions_schedule_the_same_without_outputs(make_runtime, empty_outputs):
    with_outputs = _single_schedules(make_runtime)
    clear_default_profile_store_cache()
    empty_outputs()
    without_outputs = _single_schedules(make_runtime)
    assert without_outputs == with_outputs


def _multiplex_schedule(make_runtime):
    from repro.admission import AdmissionConfig
    from repro.service import AIWorkflowService
    from repro.workloads.arrival import poisson_arrivals

    arrivals = poisson_arrivals(rate_per_s=0.15, horizon_s=300.0, workloads=WORKFLOWS, seed=3)
    runtime = make_runtime()
    jobs = []
    account = runtime.result_of

    def result_of(job, orchestration, executor, pool):
        result = account(job, orchestration, executor, pool)
        jobs.append((job.job_id, _intervals(executor.trace, job.job_id), result.energy))
        return result

    runtime.result_of = result_of
    with _CountingAllocations() as allocations:
        service = AIWorkflowService(runtime=runtime)
        service.runtime.set_fabric("datacenter-3tier")
        try:
            report = service.submit_trace(
                arrivals,
                registry=_REGISTRY,
                mode="multiplex",
                admission=AdmissionConfig(**FIDELITY_ADMISSION),
            )
        finally:
            service.shutdown()
    schedule = report.canonical_dict()
    del schedule["quality"]
    for summary in schedule["job_summaries"].values():
        del summary["quality"]
    return schedule, jobs, runtime.engine.events_fired, allocations.calls


@pytest.mark.parametrize("make_runtime", [MurakkabRuntime, unoptimized_runtime])
def test_multiplex_trace_schedules_the_same_without_outputs(make_runtime, empty_outputs):
    with_outputs = _multiplex_schedule(make_runtime)
    assert with_outputs[1] and with_outputs[0]["failed_jobs"] == 0
    clear_default_profile_store_cache()
    empty_outputs()
    without_outputs = _multiplex_schedule(make_runtime)
    assert without_outputs == with_outputs


# --------------------------------------------------------------------- #
# Replayed results equal the eager dataflow
# --------------------------------------------------------------------- #


def _session(rounds, **client_options):
    """Every combination, ``rounds`` times, on one client; job ids grow a
    character per round."""
    with MurakkabClient(registry=_REGISTRY, **client_options) as client:
        return [
            client.submit(
                workflow,
                constraints=Constraint(constraint) if constraint else None,
                quality_target=quality,
                job_id=f"call{'-' * round_}{index}",
            ).result
            for round_ in range(rounds)
            for index, (workflow, constraint, quality) in enumerate(_COMBINATIONS)
        ]


def test_replayed_results_equal_the_eager_dataflow_for_every_combination():
    served = _session(4)
    info = dataflow_memo_info()
    assert info["replayed"] > len(_COMBINATIONS)
    assert info["refused"] == 0
    # Every key was confirmed once, whatever the length of its job ids.
    assert info["confirmed"] == info["candidates"] == info["entries"]

    reference = _session(4, runtime=unoptimized_runtime())
    assert dataflow_memo_info() == info  # the oracle never touches the memo
    for result, expected in zip(served, reference):
        _assert_same_dataflow(result, expected)


def test_job_ids_of_any_length_share_one_entry():
    runtime = MurakkabRuntime()
    job_ids = ("j", "job-22", "a-much-longer-job-id-333", "x4", "yet-another-id")
    results = [
        runtime.submit(_REGISTRY.build("video-understanding", job_id)) for job_id in job_ids
    ]
    info = dataflow_memo_info()
    assert (info["fresh"], info["candidates"], info["confirmed"], info["replayed"]) == (1, 1, 1, 2)
    assert info["entries"] == 1
    reference = unoptimized_runtime()
    for job_id, result in zip(job_ids, results):
        expected = reference.submit(_REGISTRY.build("video-understanding", job_id))
        _assert_same_dataflow(result, expected)
    # The vector database's output names the replayed job's own collection.
    assert any(
        r.output.get("collection") == "yet-another-id" for r in results[-1].task_results.values()
    )


def _two_node_cluster():
    return Cluster(
        [Node("node0", gpu_count=8, cpu_cores=96), Node("node1", gpu_count=4, cpu_cores=96)]
    )


def _disrupted_submit(make_runtime, job_id, failure_time, quality):
    runtime = make_runtime(cluster=_two_node_cluster())
    dynamics = runtime.attach_dynamics(
        DynamicsConfig(
            failures=FailureModel(failures=[NodeFailure(time=failure_time, node_id="node0")])
        )
    )
    videos = generate_videos(count=2, scenes_per_video=3, frames_per_scene=4)
    spec = video_understanding_spec(constraints=Constraint("min_latency"), quality_target=quality)
    result = runtime.submit(compile_spec(spec, inputs=videos, job_id=job_id))
    return result, dynamics.log


@pytest.mark.parametrize(
    "failure_time, quality, replanned",
    [(6.0, 0.8, False), (8.0, 0.9, True)],
    ids=["requeue", "replan-mid-stage"],
)
def test_replayed_results_match_under_dynamics(failure_time, quality, replanned):
    job_ids = ("d-1", "d-22", "d-333", "d-4444", "d-55555")
    for job_id in job_ids:
        result, log = _disrupted_submit(MurakkabRuntime, job_id, failure_time, quality)
        assert log.requeued_tasks >= 1
        assert (log.replans >= 1) is replanned
        reference, _ = _disrupted_submit(_eager_runtime, job_id, failure_time, quality)
        _assert_same_dataflow(result, reference)
    if replanned:
        # The summarizer lane changed configuration in the middle of the stage.
        configs = {
            (interval.metadata["agent"], len(interval.gpu_ids))
            for interval in result.trace
            if interval.category == "LLM (Text)" and "scene_summarization" in interval.task_id
        }
        assert len(configs) == 2
    assert dataflow_memo_info()["replayed"] >= 2


# --------------------------------------------------------------------- #
# Confirmation
# --------------------------------------------------------------------- #


class _SharingSentiment(DistilBertSentiment):
    """A pure agent whose output holds one list twice on every third call
    and two equal lists otherwise: equal values, but a job's pickle depends
    on how many calls came before it."""

    calls = 0

    def execute(self, work, config, mode=SEQUENTIAL_MODE):
        result = super().execute(work, config, mode)
        type(self).calls += 1
        tags = ["positive", "signal"]
        result.output["tags"] = [tags, tags] if self.calls % 3 else [tags, list(tags)]
        return result


class _CountingSentiment(DistilBertSentiment):
    """An impure agent: its output counts its calls."""

    calls = 0

    def execute(self, work, config, mode=SEQUENTIAL_MODE):
        result = super().execute(work, config, mode)
        type(self).calls += 1
        result.output["calls"] = self.calls
        return result


def _with(*implementations):
    """The default library with each of ``implementations`` in its
    namesake's place."""
    stock = default_library()
    replacing = {implementation.name: implementation for implementation in implementations}
    return AgentLibrary(
        replacing.get(schema.name) or stock.get(schema.name) for schema in stock.schemas()
    )


def _newsfeed_runs(library, count):
    runtime = MurakkabRuntime(library=library)
    return [runtime.submit(_REGISTRY.build("newsfeed", f"news-{n}")) for n in range(count)]


def test_confirmation_compares_values_not_object_sharing():
    _SharingSentiment.calls = 0
    results = _newsfeed_runs(_with(_SharingSentiment()), 4)
    info = dataflow_memo_info()
    assert (info["confirmed"], info["refused"], info["replayed"]) == (1, 0, 1)
    sentiments = [
        r for r in results[-1].task_results.values() if r.interface.value == "sentiment_analysis"
    ]
    assert sentiments and all(r.output["tags"] == [["positive", "signal"]] * 2 for r in sentiments)


def test_an_impure_agent_is_refused_at_confirmation():
    _CountingSentiment.calls = 0
    results = _newsfeed_runs(_with(_CountingSentiment()), 4)
    info = dataflow_memo_info()
    counts = (info["candidates"], info["refused"], info["confirmed"], info["replayed"])
    assert counts == (1, 1, 0, 0)
    assert info["fresh"] == 2 and info["entries"] == 1 and info["bytes"] == 0
    # Every job ran its agents: the last one saw every earlier call.
    counts = [
        max(r.output["calls"] for r in result.task_results.values() if "calls" in r.output)
        for result in results
    ]
    assert counts == sorted(counts) and counts[-1] == _CountingSentiment.calls


class _MarkedSentiment(DistilBertSentiment):
    """Another implementation registered under ``distilbert-sentiment``."""

    def execute(self, work, config, mode=SEQUENTIAL_MODE):
        result = super().execute(work, config, mode)
        result.output["marked"] = True
        return result


def test_libraries_with_different_implementations_under_one_name_never_share():
    stock = _newsfeed_runs(default_library(), 4)
    assert dataflow_memo_info()["replayed"] == 1
    marked = _newsfeed_runs(_with(_MarkedSentiment()), 4)
    # The two libraries render the same agent schemas, so their jobs stamp
    # from one template; only the implementation class tells them apart.
    assert marked[-1].graph.stamped_from is stock[-1].graph.stamped_from
    assert not any(r.output.get("marked") for r in stock[-1].task_results.values())
    assert all(
        r.output.get("marked", False) == (r.interface.value == "sentiment_analysis")
        for r in marked[-1].task_results.values()
    )
    # The marked jobs stamp from the stock jobs' template, so the first of
    # them is already a candidate of its own key.
    info = dataflow_memo_info()
    assert info["entries"] == 2 and info["confirmed"] == 2 and info["replayed"] == 3


class _EchoingNvlmAnswerer(NvlmAnswerer):
    """Question answering that also echoes the objects it was handed, in
    the order the dataflow gathered them from the scene summaries."""

    def execute(self, work, config, mode=SEQUENTIAL_MODE):
        result = super().execute(work, config, mode)
        result.output["objects_seen"] = list(work.get("objects") or [])
        return result


class _EchoingLlamaAnswerer(LlamaAnswerer):
    execute = _EchoingNvlmAnswerer.execute


def test_scene_summary_completion_order_keys_the_memo():
    library = _with(_EchoingNvlmAnswerer(), _EchoingLlamaAnswerer())
    runtime = MurakkabRuntime(library=library)

    def finished(job_id, swap):
        """A video job's dataflow, its tasks completed in topological order
        but for the first two scene summaries when ``swap``."""
        job = _REGISTRY.build("video-understanding", job_id)
        orchestration = runtime.orchestrator.prepare(job)
        order = orchestration.graph.topological_order()
        flow = JobDataflow(
            orchestration.graph,
            library,
            job_id,
            {task.task_id: index for index, task in enumerate(order)},
        )
        if swap:
            first, second = [
                index for index, task in enumerate(order) if task.stage == "scene_summarization"
            ][:2]
            order[first], order[second] = order[second], order[first]
        for task in order:
            assignment = orchestration.plan.assignments_for(task.interface)[0]
            flow.record(task, library.get(assignment.agent_name), assignment)
        return flow

    def answer(results):
        (seen,) = [
            r.output["objects_seen"] for r in results.values() if "objects_seen" in r.output
        ]
        return seen

    runtime.orchestrator.prepare(_REGISTRY.build("video-understanding", "first-sighting"))
    in_order = [finished(job_id, swap=False).finish() for job_id in ("v-1", "v-22", "v-333")]
    assert dataflow_memo_info()["replayed"] == 1
    swapped = finished("v-4444", swap=True).finish()
    assert dataflow_memo_info()["replayed"] == 1  # a key of its own
    library.get("vector-db").drop_collection("v-4444")  # as its executor would
    assert answer(swapped) != answer(in_order[-1])
    assert _same(swapped, finished("v-4444", swap=True).compute())


def test_editing_a_result_in_place_never_reaches_a_later_job():
    runtime = MurakkabRuntime()
    first = [runtime.submit(_REGISTRY.build("video-understanding", f"v{n}")) for n in range(4)]
    pristine = copy.deepcopy(_dataflow(first[-1])[:2])
    for result in first:  # the candidate, the confirmation and a replay
        result.output["answer"] = "edited"
        for task_result in result.task_results.values():
            for value in task_result.output.values():
                if isinstance(value, list):
                    value.append("edited")
            task_result.output["extra"] = 1
        result.task_results.clear()
    later = runtime.submit(_REGISTRY.build("video-understanding", "v3"))
    assert dataflow_memo_info()["replayed"] == 2
    output, tasks, _ = _dataflow(later)
    assert _same(output, pristine[0])
    assert [task_id for task_id, _ in tasks] == [task_id for task_id, _ in pristine[1]]
    assert all(_same(got, want) for (_, got), (_, want) in zip(tasks, pristine[1]))


@pytest.mark.parametrize("make_runtime", [MurakkabRuntime, _eager_runtime])
def test_an_aborted_job_leaves_no_vector_collection(make_runtime, monkeypatch):
    runtime = make_runtime()
    vectordb = runtime.library.get("vector-db")

    def refuse(self, work, config, mode=SEQUENTIAL_MODE):
        raise RuntimeError("answering is down")

    # Question answering starts after the vector insert completed.
    monkeypatch.setattr(_BaseAnswerer, "estimate", refuse)
    with pytest.raises(RuntimeError, match="answering is down"):
        runtime.submit(_REGISTRY.build("document-qa", "aborted"))
    assert vectordb.collection_names() == []


def test_clearing_shared_state_empties_the_memo_and_its_counters():
    runtime = MurakkabRuntime()
    for n in range(3):
        runtime.submit(_REGISTRY.build("newsfeed", f"n{n}"))
    assert dataflow_memo_info()["entries"] == 1
    clear_default_profile_store_cache()
    assert dataflow_memo_info() == dict.fromkeys(
        ("fresh", "candidates", "confirmed", "refused", "replayed", "entries", "bytes"), 0
    )
    # The live runtime keeps working and starts over from a first sighting.
    runtime.submit(_REGISTRY.build("newsfeed", "n3"))
    runtime.submit(_REGISTRY.build("newsfeed", "n4"))
    info = dataflow_memo_info()
    assert (info["fresh"], info["candidates"], info["entries"]) == (1, 1, 1)


def test_graphs_no_template_stamped_compute_fresh(videos):
    from repro.baselines.omagent import OmAgentBaseline

    baseline = OmAgentBaseline()
    first, second = (baseline.run(inputs=videos) for _ in range(2))
    assert _same(first.output, second.output)
    assert dataflow_memo_info()["fresh"] == 2
    assert dataflow_memo_info()["entries"] == 0


def test_editing_a_stamp_detaches_it_from_its_template():
    runtime = MurakkabRuntime()
    job = _REGISTRY.build("newsfeed", "hand")
    assert runtime.orchestrator.prepare(job).graph.stamped_from is None  # a first sighting
    graph = runtime.orchestrator.prepare(job).graph
    assert graph.stamped_from is not None
    tasks = list(graph)
    graph.add_dependency(tasks[0].task_id, tasks[-1].task_id)
    assert graph.stamped_from is None
