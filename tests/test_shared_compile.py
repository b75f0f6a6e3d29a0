"""Runtimes in one process share what they compile.

Every decomposer uses one process-wide template memo, and every planner
over an unmodified copy of a memoized master store uses that master's
decision cache.  These tests hold a runtime served on
warm shared caches to the same session served cold, and check that a
runtime whose store differs never reads a shared decision.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.agents.base import AgentInterface
from repro.agents.library import AgentLibrary, default_library
from repro.agents.sentiment import DistilBertSentiment
from repro.baselines.unoptimized import unoptimized_runtime
from repro.client import MurakkabClient
from repro.core import decomposer as decomposer_module
from repro.core.constraints import Constraint
from repro.core.decomposer import JobDecomposer
from repro.core.job import Job
from repro.core.runtime import MurakkabRuntime
from repro.loadgen import default_registry
from repro.profiling.profiler import (
    Profiler,
    clear_default_profile_store_cache,
    default_profile_store,
)
from repro.service import AIWorkflowService

_REGISTRY = default_registry()
_COMBINATIONS = [
    (workflow, constraint, quality)
    for workflow in ("video-understanding", "newsfeed", "document-qa", "chain-of-thought")
    for constraint in (None, "min_latency", "min_energy", "min_cost")
    for quality in (None, 0.9)
]


def _view(result):
    return {
        "job_id": result.job_id,
        "output": result.output,
        "plan": result.plan.describe(),
        "trace": tuple(result.trace),
        "energy": result.energy,
        "quality": result.quality,
        "makespan_s": result.makespan_s,
        "react_trace": result.react_trace,
    }


def _session(**client_options):
    """Every combination served on one fresh client, and its planner's
    cache counters."""
    with MurakkabClient(registry=_REGISTRY, **client_options) as client:
        views = [
            _view(
                client.submit(
                    workflow,
                    constraints=Constraint(constraint) if constraint else None,
                    quality_target=quality,
                    job_id=f"call-{index}",
                ).result
            )
            for index, (workflow, constraint, quality) in enumerate(_COMBINATIONS)
        ]
        return views, client.service.runtime.planner.plan_cache_info


def _shared_decisions():
    return default_profile_store().shared_decisions()


def test_a_session_on_shared_caches_serves_what_a_cold_one_does():
    first, first_info = _session()
    second, second_info = _session()
    # The second client plans nothing itself: the first decided it all.
    assert first_info["misses"] > 0
    assert second_info["misses"] == 0

    clear_default_profile_store_cache()
    cold, _ = _session()
    assert first == cold
    assert second == cold

    reference, _ = _session(runtime=unoptimized_runtime())
    assert [view["plan"] for view in cold] == [view["plan"] for view in reference]


def _video_job(job_id):
    return _REGISTRY.build("video-understanding", job_id)


def _stt_agent(service, job_id):
    result = service.submit_job(_video_job(job_id))
    return result.plan.primary_assignment(AgentInterface.SPEECH_TO_TEXT).agent_name


def test_registering_an_agent_changes_only_that_services_plans():
    from tests.test_service import TurboSTT

    a, b = AIWorkflowService(), AIWorkflowService()
    assert _stt_agent(a, "a-1") == _stt_agent(b, "b-1") == "whisper"
    shared = _shared_decisions()
    size = len(shared)

    a.register_agent(TurboSTT())
    assert _stt_agent(a, "a-2") == "turbo-stt"
    # A detached to a private cache; the shared one is untouched, and B and
    # a new service C still plan from it.
    assert a.runtime.planner.export_plan_cache() != list(shared.items())
    assert len(shared) == size
    assert _stt_agent(b, "b-2") == "whisper"
    assert len(shared) > size  # B still decides into the shared cache
    c = AIWorkflowService()
    assert _stt_agent(c, "c-1") == "whisper"
    assert c.runtime.planner.plan_cache_info["misses"] == 0


def test_a_runtime_on_its_own_store_never_reads_shared_decisions():
    MurakkabRuntime().submit(_video_job("shared-1"))
    assert _shared_decisions()

    own = MurakkabRuntime(profile_store=Profiler().profile_library(default_library()))
    own.submit(_video_job("own-1"))
    info = own.planner.plan_cache_info
    assert info["hits"] == 0 and info["misses"] > 0
    assert info["size"] == info["misses"]


def test_a_warm_started_runtime_never_reads_shared_decisions(tmp_path):
    cold = AIWorkflowService(warm_cache=tmp_path)
    cold.submit_job(_REGISTRY.build("newsfeed", "cold-1"))
    cold.save_warm_state()
    saved = len(cold.runtime.planner.export_plan_cache())
    # Decisions the warm cache never saw, made after it was written.
    MurakkabRuntime().submit(_video_job("shared-2"))
    shared = _shared_decisions()
    assert len(shared) > saved

    warm = AIWorkflowService(warm_cache=tmp_path)
    assert warm.warm_cache.counters()["hits"] == 2  # profiles and decisions
    assert warm.runtime.profile_store.shared_decisions() is None
    assert warm.runtime.planner.plan_cache_info["size"] == saved
    warm.submit_job(_video_job("warm-1"))
    assert warm.runtime.planner.plan_cache_info["misses"] > 0
    assert len(shared) > saved  # the shared cache was neither read nor cleared


@pytest.mark.parametrize("restore", ["caller-runtime", "plans-only"])
def test_restored_warm_decisions_never_reach_the_shared_cache(tmp_path, restore):
    cold = AIWorkflowService(warm_cache=tmp_path)
    cold.submit_job(_REGISTRY.build("newsfeed", "cold-1"))
    cold.save_warm_state()
    saved = len(cold.runtime.planner.export_plan_cache())
    clear_default_profile_store_cache()
    if restore == "caller-runtime":
        warm = AIWorkflowService(runtime=MurakkabRuntime(), warm_cache=tmp_path)
    else:
        # Profiles missing: the service plans over a default-store copy.
        (profiles,) = tmp_path.glob("profiles-*.pkl")
        profiles.unlink()
        warm = AIWorkflowService(warm_cache=tmp_path)
    assert warm.runtime.planner.plan_cache_info["size"] == saved
    assert _shared_decisions() == {}
    other = MurakkabRuntime()
    other.submit(_REGISTRY.build("newsfeed", "other-1"))
    assert other.planner.plan_cache_info["hits"] == 0


def test_templates_are_shared_only_under_the_same_orchestrator_llm():
    job = _REGISTRY.build("newsfeed", "scope-1")
    wide = MurakkabRuntime().orchestrator.decomposer
    for job_id in ("scope-1", "scope-2", "scope-3"):
        wide.decompose(dataclasses.replace(job, job_id=job_id))

    # Fewer agents render other schema lines into the LLM's system prompt.
    narrow = MurakkabRuntime(library=AgentLibrary([DistilBertSentiment()]))
    decomposer = narrow.orchestrator.decomposer
    for job_id in ("scope-4", "scope-5"):
        _, trace = decomposer.decompose(dataclasses.replace(job, job_id=job_id))
        _, fresh = decomposer.decompose_fresh(dataclasses.replace(job, job_id=job_id))
        assert trace == fresh
    assert trace.system_prompt != wide.decompose(job)[1].system_prompt


def test_editing_inputs_after_submit_never_reaches_another_runtime():
    items = [{"id": f"p{n}", "text": f"post number {n} is great"} for n in range(3)]
    description = "Classify the sentiment of each post"
    first = MurakkabRuntime()
    for job_id in ("edit-1", "edit-2"):  # the repeat compiles the template
        first.submit(Job(description=description, inputs=items, job_id=job_id))
    items[0]["text"] = "post number 0 is terrible"
    items.append({"id": "p3", "text": "a fourth post"})

    second = MurakkabRuntime()
    original = [{"id": f"p{n}", "text": f"post number {n} is great"} for n in range(3)]
    job = Job(description=description, inputs=original, job_id="edit-3")
    graph, _ = second.orchestrator.decomposer.decompose(job)
    fresh, _ = unoptimized_runtime().orchestrator.decomposer.decompose(
        dataclasses.replace(job, inputs=[dict(item) for item in original])
    )
    assert [(t.task_id, t.work.payload) for t in graph] == [
        (t.task_id, t.work.payload) for t in fresh
    ]


def test_clearing_empties_both_shared_caches():
    runtime = MurakkabRuntime()
    for job_id in ("clear-1", "clear-2"):
        runtime.submit(_video_job(job_id))
    shared = _shared_decisions()
    assert shared and decomposer_module._SHARED_TEMPLATES

    clear_default_profile_store_cache()
    assert not shared and not decomposer_module._SHARED_TEMPLATES
    assert runtime.planner.plan_cache_info["size"] == 0
    # The live runtime keeps serving and recompiles what it needs.
    assert runtime.submit(_video_job("clear-3")).makespan_s > 0


def test_every_decomposer_stamps_from_the_process_memo():
    first, second = JobDecomposer(), JobDecomposer()
    for job_id in ("direct-1", "direct-2"):  # the repeat compiles the template
        first.decompose(_video_job(job_id))
    _, trace = second.decompose(_video_job("direct-3"))
    assert trace is first.decompose(_video_job("direct-4"))[1]


@pytest.mark.parametrize("builder", ["uncached", "disabled"])
def test_private_compilers_leave_the_shared_caches_alone(builder):
    MurakkabRuntime().submit(_video_job("warm-up"))
    templates = dict(decomposer_module._SHARED_TEMPLATES)
    decisions = dict(_shared_decisions())
    if builder == "uncached":
        oracle = unoptimized_runtime()
        for job_id in ("oracle-1", "oracle-2"):
            oracle.submit(_video_job(job_id))
        assert oracle.planner.plan_cache_info["size"] == 0
    else:
        runtime = MurakkabRuntime()
        runtime.planner.enable_plan_cache = False
        runtime.submit(_video_job("disabled-1"))
        assert runtime.planner.plan_cache_info["hits"] == 0
    if builder != "disabled":
        assert decomposer_module._SHARED_TEMPLATES == templates
    assert _shared_decisions() == decisions
