"""The workflow orchestrator: decompose -> map -> plan.

The orchestrator is the planning half of the Murakkab runtime: it turns a
declarative job into a task DAG (via the orchestrator LLM), maps tasks to
agents from the library, and asks the configuration planner to pick
implementations, hardware, and execution modes under the job's constraints
and the cluster manager's current resource stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.agents.base import AgentInterface
from repro.agents.library import AgentLibrary
from repro.cluster.telemetry_exchange import ResourceStatsMessage
from repro.core.dag import TaskGraph
from repro.core.decomposer import JobDecomposer
from repro.core.job import Job
from repro.core.mapper import TaskAgentMapper
from repro.core.planner import ConfigurationPlanner, ExecutionPlan, PlannerOverride
from repro.llm.orchestrator_llm import OrchestratorLLM, ReActTrace
from repro.llm.tool_calling import ToolCall
from repro.profiling.store import ProfileStore


@dataclass
class OrchestrationResult:
    """Everything the orchestrator produces before execution starts."""

    graph: TaskGraph
    plan: ExecutionPlan
    react_trace: ReActTrace
    #: Maps tasks to tool calls on demand (``None``: there are none).
    mapper: Optional[TaskAgentMapper] = field(default=None, repr=False, compare=False)
    #: The planner's chosen agent per interface, as of :meth:`prepare`.
    chosen_agents: Dict[AgentInterface, str] = field(default_factory=dict, repr=False)
    _tool_calls: Optional[Dict[str, ToolCall]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tool_calls(self) -> Dict[str, ToolCall]:
        """The tool call for every task, keyed by task id.

        Lazy: built on first read (nothing on the serving path reads them)
        from the agents chosen at planning time, so a later lane replan
        does not change them.
        """
        if self._tool_calls is None:
            self._tool_calls = (
                self.mapper.map_graph(self.graph, self.chosen_agents)
                if self.mapper is not None
                else {}
            )
        return self._tool_calls

    @property
    def decomposition_latency_s(self) -> float:
        return self.react_trace.latency_s


class WorkflowOrchestrator:
    """Coordinates decomposition, mapping, and configuration planning."""

    def __init__(
        self,
        library: AgentLibrary,
        profile_store: ProfileStore,
        planner: Optional[ConfigurationPlanner] = None,
        decomposer: Optional[JobDecomposer] = None,
        mapper: Optional[TaskAgentMapper] = None,
        orchestrator_model: str = "nvlm-72b",
    ) -> None:
        self.library = library
        self.profile_store = profile_store
        self.planner = planner or ConfigurationPlanner(profile_store, library)
        if decomposer is None:
            llm = OrchestratorLLM(
                model_name=orchestrator_model,
                agent_schema_lines=[schema.render() for schema in library.schemas()],
            )
            decomposer = JobDecomposer(llm)
        self.decomposer = decomposer
        self.mapper = mapper or TaskAgentMapper(library)

    def prepare(
        self,
        job: Job,
        cluster_stats: Optional[ResourceStatsMessage] = None,
        overrides: Optional[Dict[AgentInterface, PlannerOverride]] = None,
    ) -> OrchestrationResult:
        """Decompose ``job`` and plan its configuration; tool calls follow lazily."""
        graph, react_trace = self.decomposer.decompose(job)
        plan = self.planner.plan(
            graph,
            constraint_set=job.constraint_set(),
            cluster_stats=cluster_stats,
            overrides=overrides,
            spec_digest=getattr(job, "spec_digest", ""),
        )
        return OrchestrationResult(
            graph=graph,
            plan=plan,
            react_trace=react_trace,
            mapper=self.mapper,
            chosen_agents=plan.chosen_agents(),
        )
