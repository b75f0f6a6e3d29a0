"""Lowering workflow specs to executable jobs.

``compile_spec`` is deliberately thin: a spec lowers to the same
:class:`~repro.core.job.Job` the hand-written factories produced, and from
there flows through the *unchanged* orchestrator/decomposer/planner
pipeline.  That is what makes the compile differentially checkable — for
every shipped workload, the spec-compiled job is byte-identical (plan and
trace) to the legacy factory's job.

Beyond the structural validation the IR performs, compilation adds the one
check that needs the orchestrator: a *decomposition cross-check* proving
the declared stages and edges survive lowering (the orchestrator produces
every declared stage, and every declared edge is realised as a dataflow
dependency).  The whole verdict, structural validation included, is
memoized per spec digest, so the workload registry can compile per-arrival
without re-deriving it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.job import Job
from repro.llm.orchestrator_llm import DecomposedTask, OrchestratorLLM
from repro.spec.ir import SpecError, SpecIssue, WorkflowSpec

#: :func:`check_spec` verdicts memoized by spec digest: ``True`` for a
#: passed check, otherwise the issue tuple to re-raise.
_CHECKED: Dict[str, object] = {}

#: Decomposed stage plans memoized by spec digest (shared by the cross-check
#: and the CLI preview so one validation decomposes once, not twice).
_PREVIEWS: Dict[str, List[DecomposedTask]] = {}

#: FIFO bound on both memo tables; far above any realistic spec population.
_MEMO_MAX = 1024


def _remember(table: Dict[str, object], digest: str, value) -> None:
    if len(table) >= _MEMO_MAX:
        table.pop(next(iter(table)))
    table[digest] = value


def clear_spec_checks() -> None:
    """Forget every memoized verdict and stage preview."""
    _CHECKED.clear()
    _PREVIEWS.clear()

#: Shared orchestrator used for previews/cross-checks (stateless per call).
_PREVIEW_LLM: Optional[OrchestratorLLM] = None


def _preview_llm() -> OrchestratorLLM:
    global _PREVIEW_LLM
    if _PREVIEW_LLM is None:
        _PREVIEW_LLM = OrchestratorLLM()
    return _PREVIEW_LLM


def materialize_inputs(spec: WorkflowSpec) -> List[object]:
    """Materialize the spec's declared input source into concrete payloads.

    Every non-inline source is a deterministic generator, so two holders of
    the same spec see identical inputs (the capture/replay property).
    """
    source = spec.inputs.source
    count = spec.inputs.count
    if source == "none":
        return []
    if source == "inline":
        return list(spec.inputs.items)
    if source == "videos":
        from repro.workloads.video import generate_videos, paper_videos

        return list(paper_videos() if count is None else generate_videos(count=count))
    if source == "posts":
        from repro.workloads.posts import generate_posts

        return generate_posts() if count is None else generate_posts(count=count)
    if source == "documents":
        from repro.workloads.documents import generate_documents

        return generate_documents() if count is None else generate_documents(count=count)
    raise SpecError(
        [
            SpecIssue(
                code="unknown-input-source",
                message=f"unknown input source {source!r}",
            )
        ]
    )


def preview_stages(spec: WorkflowSpec) -> List[DecomposedTask]:
    """The full stage plan the orchestrator derives from this spec.

    Includes both the declared stages and any the orchestrator adds on its
    own (e.g. the summarise -> embed -> index retrieval path behind a final
    answer).  Used by ``python -m repro validate`` to show what a spec
    compiles to without running anything.  Memoized per content digest, so
    validation's cross-check and the printed plan share one decomposition.
    """
    digest = spec.digest()
    cached = _PREVIEWS.get(digest)
    if cached is None:
        cached, _trace = _preview_llm().decompose(
            description=spec.description,
            task_hints=spec.task_hints(),
        )
        _remember(_PREVIEWS, digest, cached)
    return list(cached)


def _decomposition_issues(spec: WorkflowSpec) -> List[SpecIssue]:
    """Check the declared DAG survives lowering through the orchestrator."""
    issues: List[SpecIssue] = []
    try:
        stages = preview_stages(spec)
    except ValueError as error:
        return [
            SpecIssue(
                code="undecomposable",
                message=f"the orchestrator cannot decompose this spec: {error}",
            )
        ]
    produced = {stage.interface: stage for stage in stages}
    # Transitive dependency closure over the decomposed stage DAG.
    closure: Dict[str, set] = {}
    for stage in stages:  # stages arrive producers-first
        deps = set()
        for upstream in stage.depends_on:
            deps.add(upstream)
            deps.update(closure.get(upstream, set()))
        closure[stage.name] = deps
    for declared in spec.stages:
        if declared.interface not in produced:
            issues.append(
                SpecIssue(
                    code="dropped-stage",
                    message=f"the orchestrator derives no {declared.interface.value!r} "
                    "stage from this spec; give the stage a prompt so it is "
                    "hinted explicitly",
                    stage=declared.name,
                )
            )
    for declared in spec.stages:
        if declared.interface not in produced:
            continue
        for upstream_name in declared.after:
            upstream = spec.stage(upstream_name)
            if upstream.interface not in produced:
                continue  # already reported as dropped
            realised = closure.get(declared.interface.value, set())
            if upstream.interface.value not in realised:
                issues.append(
                    SpecIssue(
                        code="unrealizable-edge",
                        message=f"declared edge {upstream_name!r} -> "
                        f"{declared.name!r} is not realised by the "
                        "orchestrator's dataflow wiring",
                        stage=declared.name,
                    )
                )
    return issues


def spec_issues(spec: WorkflowSpec) -> List[SpecIssue]:
    """Every finding :func:`check_spec` would raise, without raising.

    Structural validation first; when that is clean, the decomposition
    cross-check too — so a spec this reports clean really does compile.
    """
    issues = spec.issues()
    if issues:
        return issues
    return _decomposition_issues(spec)


def check_spec(spec: WorkflowSpec) -> None:
    """Eager validation: structural checks plus the decomposition cross-check.

    Raises :class:`SpecError` with every finding.  The verdict is memoized
    per spec digest, which covers every field validation reads, so
    per-arrival compiles in the load generator pay it once.
    """
    try:
        digest = spec.digest()
    except (TypeError, ValueError):
        spec.validate()  # a spec too malformed to digest reports its findings
        raise
    verdict = _CHECKED.get(digest)
    if verdict is None:
        issues = tuple(spec_issues(spec))
        verdict = issues if issues else True
        _remember(_CHECKED, digest, verdict)
    if verdict is not True:
        raise SpecError(list(verdict))


def compile_spec(
    spec: WorkflowSpec,
    inputs: Optional[Sequence[object]] = None,
    job_id: str = "",
) -> Job:
    """Lower a validated spec to an executable :class:`Job`.

    ``inputs`` overrides the spec's declared input source (a corpus the
    caller already holds, such as the one a registry materialized once);
    ``None`` materializes the declared source.
    The returned job carries the spec's content digest, which namespaces
    the planner's cached decisions per spec.
    """
    check_spec(spec)
    if inputs is None:
        inputs = materialize_inputs(spec)
    job = Job(
        description=spec.description,
        inputs=list(inputs),
        tasks=spec.task_hints(),
        constraints=ConstraintSet(priorities=spec.constraints),
        quality_target=spec.quality_target,
        job_id=job_id,
        spec_digest=spec.digest(),
        priority=spec.priority,
        deadline_s=spec.deadline_s,
    )
    return job
