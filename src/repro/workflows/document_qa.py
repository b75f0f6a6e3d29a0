"""A retrieval-augmented document question-answering workflow.

This exercises the embedding -> vector database -> question answering slice
of the agent library on text inputs (no video substrate involved), the kind
of "unstructured analytics" workload the paper cites as related work.

The workload is defined as a declarative :class:`WorkflowSpec`
(:func:`document_qa_spec`); ``compile_spec(document_qa_spec(),
inputs=documents)`` lowers it to a job over a caller's own corpus.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.constraints import Constraint, ConstraintSet, MIN_COST
from repro.spec import WorkflowBuilder, WorkflowSpec


def document_qa_spec(
    question: str = "Which documents discuss energy efficiency?",
    constraints: Union[Constraint, ConstraintSet] = MIN_COST,
    quality_target: float = 0.8,
    document_count: Optional[int] = None,
) -> WorkflowSpec:
    """The declarative document-QA spec over a synthetic corpus."""
    builder = (
        WorkflowBuilder("document-qa")
        .describe(question)
        .inputs("documents", count=document_count)
        .stage("embedding", "Embed each document")
        .then("vector_db", "Insert the embeddings into a vector database")
        .then("question_answering", "Answer the question from the most relevant documents")
        .constraints(ConstraintSet.of(constraints))
    )
    # A falsy quality_target defers to the constraint set's own floor, as
    # the legacy factory's ConstraintSet.of(constraints, quality_target) did.
    if quality_target:
        builder.quality(quality_target)
    return builder.build()
