"""Murakkab core: the declarative programming model and the adaptive runtime.

This package is the paper's primary contribution:

* the declarative workflow programming model — :class:`~repro.core.job.Job`,
  constraints, and the task-DAG intermediate representation (paper §3.1,
  Listing 2);
* the adaptive runtime — job decomposition, task-to-agent mapping,
  profile-driven model/tool selection, configuration planning over the
  Table-1 levers, and DAG-aware execution co-scheduled with the cluster
  manager (paper §3.2).
"""

from repro.core.constraints import (
    Constraint,
    ConstraintSet,
    MAX_QUALITY,
    MIN_COST,
    MIN_ENERGY,
    MIN_LATENCY,
    MIN_POWER,
)
from repro.core.task import Task, TaskState
from repro.core.dag import TaskGraph
from repro.core.job import Job, JobResult
from repro.core.decomposer import JobDecomposer
from repro.core.mapper import TaskAgentMapper
from repro.core.planner import (
    ConfigurationPlanner,
    ExecutionPlan,
    PlanAssignment,
    PlannerOverride,
)
from repro.core.dataflow import dataflow_memo_info
from repro.core.execution import ServerPool, WorkflowExecutor
from repro.core.quality import cascade_quality, score_object_listing_answer
from repro.core.quality_control import QualityController, plan_checkpoints
from repro.core.orchestrator import WorkflowOrchestrator
from repro.core.runtime import MurakkabRuntime
from repro.core.schedule import schedule_memo_info

__all__ = [
    "Constraint",
    "ConstraintSet",
    "MIN_COST",
    "MIN_LATENCY",
    "MIN_ENERGY",
    "MIN_POWER",
    "MAX_QUALITY",
    "Task",
    "TaskState",
    "TaskGraph",
    "Job",
    "JobResult",
    "JobDecomposer",
    "TaskAgentMapper",
    "ConfigurationPlanner",
    "ExecutionPlan",
    "PlanAssignment",
    "PlannerOverride",
    "dataflow_memo_info",
    "ServerPool",
    "WorkflowExecutor",
    "cascade_quality",
    "score_object_listing_answer",
    "QualityController",
    "plan_checkpoints",
    "WorkflowOrchestrator",
    "MurakkabRuntime",
    "schedule_memo_info",
]
