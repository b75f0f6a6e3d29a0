"""Differential tests: spec compilation vs the legacy hand-built jobs.

The four shipped workloads are defined as :class:`WorkflowSpec` values.
These tests pin the refactor down:

* for each workload, ``compile_spec(spec)`` produces a job that is
  field-identical to the job the *pre-refactor* factory built (the legacy
  construction is inlined here verbatim as the reference), and
* submitting both under the ``default`` policy yields byte-identical plans
  and execution traces.
"""

import pytest

from repro.core.constraints import MAX_QUALITY, MIN_COST
from repro.core.job import Job
from repro.core.runtime import MurakkabRuntime
from repro.loadgen import default_registry
from repro.spec import compile_spec
from repro.workflows.chain_of_thought import chain_of_thought_spec
from repro.workflows.document_qa import document_qa_spec
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.video_understanding import (
    PAPER_JOB_DESCRIPTION,
    PAPER_QUALITY_TARGET,
    PAPER_TASK_HINTS,
    video_understanding_spec,
)
from repro.workloads.documents import generate_documents
from repro.workloads.posts import generate_posts
from repro.workloads.video import paper_videos


# --------------------------------------------------------------------- #
# Legacy factories, inlined verbatim as the differential reference
# --------------------------------------------------------------------- #


def _legacy_newsfeed(job_id):
    return Job(
        description="Generate social media newsfeed for Alice",
        inputs=generate_posts(),
        tasks=(
            "Run sentiment analysis on the recent posts",
            "Compose a personalised newsfeed for Alice from the posts",
        ),
        constraints=MIN_COST,
        quality_target=0.85,
        job_id=job_id,
    )


def _legacy_video_understanding(job_id):
    return Job(
        description=PAPER_JOB_DESCRIPTION,
        inputs=paper_videos(),
        tasks=list(PAPER_TASK_HINTS),
        constraints=MIN_COST,
        quality_target=PAPER_QUALITY_TARGET,
        job_id=job_id,
    )


def _legacy_document_qa(job_id):
    return Job(
        description="Which documents discuss energy efficiency?",
        inputs=generate_documents(),
        tasks=(
            "Embed each document",
            "Insert the embeddings into a vector database",
            "Answer the question from the most relevant documents",
        ),
        constraints=MIN_COST,
        quality_target=0.8,
        job_id=job_id,
    )


def _legacy_chain_of_thought(job_id):
    return Job(
        description="Which speech-to-text configuration minimises energy for 16 scenes?",
        inputs=(),
        tasks=("Answer the question with step-by-step reasoning",),
        constraints=MAX_QUALITY,
        quality_target=0.9,
        job_id=job_id,
    )


WORKLOADS = {
    "newsfeed": (newsfeed_spec, _legacy_newsfeed),
    "video-understanding": (video_understanding_spec, _legacy_video_understanding),
    "document-qa": (document_qa_spec, _legacy_document_qa),
    "chain-of-thought": (chain_of_thought_spec, _legacy_chain_of_thought),
}


# --------------------------------------------------------------------- #
# Job-level equivalence
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiled_job_fields_match_legacy_factory(name):
    spec_fn, legacy_fn = WORKLOADS[name]
    compiled = compile_spec(spec_fn(), job_id=f"{name}-spec")
    legacy = legacy_fn(f"{name}-spec")
    assert compiled.description == legacy.description
    assert list(compiled.inputs) == list(legacy.inputs)
    assert tuple(compiled.tasks) == tuple(legacy.tasks)
    assert compiled.constraint_set() == legacy.constraint_set()
    assert compiled.quality_target == legacy.quality_target
    assert compiled.job_id == legacy.job_id
    # The compiled job carries the spec's content digest; hand-built jobs
    # carry none.
    assert compiled.spec_digest == spec_fn().digest()
    assert legacy.spec_digest == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_registered_build_is_the_spec_compile(name):
    """A registered workload builds its jobs only by compiling its spec
    over the inputs materialized at registration."""
    spec_fn, _legacy_fn = WORKLOADS[name]
    registry = default_registry()
    assert registry.spec(name).digest() == spec_fn().digest()
    via_registry = registry.build(name, f"{name}-registry")
    via_spec = compile_spec(spec_fn(), job_id=f"{name}-registry")
    assert via_registry.description == via_spec.description
    assert list(via_registry.inputs) == list(via_spec.inputs)
    assert tuple(via_registry.tasks) == tuple(via_spec.tasks)
    assert via_registry.constraint_set() == via_spec.constraint_set()
    assert via_registry.spec_digest == via_spec.spec_digest


# --------------------------------------------------------------------- #
# Execution-level byte-identity under the default policy
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiled_execution_is_byte_identical_to_legacy(name):
    spec_fn, legacy_fn = WORKLOADS[name]
    job_id = f"{name}-diff"
    spec_result = MurakkabRuntime().submit(compile_spec(spec_fn(), job_id=job_id))
    legacy_result = MurakkabRuntime().submit(legacy_fn(job_id))

    assert spec_result.plan.describe() == legacy_result.plan.describe()
    assert tuple(spec_result.trace) == tuple(legacy_result.trace)
    assert [i.metadata for i in spec_result.trace] == [
        i.metadata for i in legacy_result.trace
    ]
    assert spec_result.summary() == legacy_result.summary()
    assert spec_result.output == legacy_result.output
    assert spec_result.energy == legacy_result.energy


def test_spec_digest_namespaces_plan_cache_entries():
    """Identical decisions land in distinct cache entries per spec digest."""
    runtime = MurakkabRuntime()
    planner = runtime.orchestrator.planner
    runtime.submit(compile_spec(newsfeed_spec(), job_id="ns-a"))
    size_after_spec = planner.plan_cache_info["size"]
    # The legacy-shaped job (no digest) misses the spec-digest entries and
    # plans into its own namespace.
    runtime.submit(_legacy_newsfeed("ns-b"))
    assert planner.plan_cache_info["size"] > size_after_spec


def test_compile_applies_constraint_overrides():
    spec = newsfeed_spec(constraints=MAX_QUALITY, quality_target=0.5)
    job = compile_spec(spec, job_id="override")
    assert job.constraint_set().primary is MAX_QUALITY
    assert job.constraint_set().quality_floor == 0.5
    assert spec.digest() != newsfeed_spec().digest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shim_preserves_constraint_set_floor_when_quality_target_zero(name):
    """The legacy ConstraintSet.of(cs, 0.0) semantics: a falsy
    quality_target defers to the constraint set's own quality floor."""
    from repro.core.constraints import Constraint, ConstraintSet

    spec_fn, _legacy_fn = WORKLOADS[name]
    floored = ConstraintSet((Constraint.MIN_ENERGY,), quality_floor=0.95)
    job = compile_spec(
        spec_fn(constraints=floored, quality_target=0.0), job_id=f"{name}-floor"
    )
    assert job.constraint_set() == floored


def test_with_overrides_keeps_constraint_set_floor():
    from repro.core.constraints import Constraint, ConstraintSet

    floored = ConstraintSet((Constraint.MIN_ENERGY,), quality_floor=0.95)
    overridden = newsfeed_spec().with_overrides(constraints=floored)
    assert overridden.constraints == (Constraint.MIN_ENERGY,)
    assert overridden.quality_target == 0.95
    # An explicit quality target still wins over the set's floor.
    explicit = newsfeed_spec().with_overrides(constraints=floored, quality_target=0.6)
    assert explicit.quality_target == 0.6
