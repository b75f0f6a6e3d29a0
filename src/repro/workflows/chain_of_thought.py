"""A chain-of-thought style reasoning workflow.

Used by the Table-1 "Execution Paths" lever experiments: allocating more
resources lets the runtime explore additional reasoning paths in parallel,
raising answer quality at higher cost and power (§3.2 "Execution Paths").

The workload is defined as a declarative :class:`WorkflowSpec`
(:func:`chain_of_thought_spec`); ``compile_spec(chain_of_thought_spec())``
lowers it to a job.
"""

from __future__ import annotations

from typing import Union

from repro.core.constraints import Constraint, ConstraintSet, MAX_QUALITY
from repro.spec import WorkflowBuilder, WorkflowSpec


def chain_of_thought_spec(
    question: str = "Which speech-to-text configuration minimises energy for 16 scenes?",
    constraints: Union[Constraint, ConstraintSet] = MAX_QUALITY,
    quality_target: float = 0.9,
) -> WorkflowSpec:
    """The declarative single-question reasoning spec (no inputs needed)."""
    builder = (
        WorkflowBuilder("chain-of-thought")
        .describe(question)
        .inputs("none")
        .stage("question_answering", "Answer the question with step-by-step reasoning")
        .constraints(ConstraintSet.of(constraints))
    )
    # A falsy quality_target defers to the constraint set's own floor, as
    # the legacy factory's ConstraintSet.of(constraints, quality_target) did.
    if quality_target:
        builder.quality(quality_target)
    return builder.build()
