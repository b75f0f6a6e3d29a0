"""Workflow definitions: the imperative (Listing 1) and declarative
(Listing 2) APIs plus the named workloads used in the paper and examples.

The declarative API lives in :mod:`repro.spec` and is re-exported here:
:class:`WorkflowBuilder` authors a serializable :class:`WorkflowSpec`, and
:func:`compile_spec` lowers it to an executable job.  Each shipped workload
is defined as a spec (``*_spec``); ``compile_spec(<name>_spec(...),
inputs=..., job_id=...)`` turns one into a job, and
:meth:`~repro.loadgen.WorkloadRegistry.register_spec` makes it a named
workload of the serving stack.
"""

from repro.spec import SpecError, WorkflowBuilder, WorkflowSpec, compile_spec
from repro.workflows.imperative import (
    LLM,
    ImperativeComponent,
    ImperativeWorkflow,
    MLModel,
    Tool,
)
from repro.workflows.video_understanding import (
    omagent_imperative_workflow,
    video_understanding_spec,
)
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.document_qa import document_qa_spec
from repro.workflows.chain_of_thought import chain_of_thought_spec

__all__ = [
    "Tool",
    "MLModel",
    "LLM",
    "ImperativeComponent",
    "ImperativeWorkflow",
    "SpecError",
    "WorkflowBuilder",
    "WorkflowSpec",
    "compile_spec",
    "video_understanding_spec",
    "omagent_imperative_workflow",
    "newsfeed_spec",
    "document_qa_spec",
    "chain_of_thought_spec",
]
