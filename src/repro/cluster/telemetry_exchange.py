"""Messages exchanged between the Workflow Orchestrator and Cluster Manager.

The paper argues that the key to efficiency is two-way information flow
(Figure 2): the orchestrator announces workflow DAGs and upcoming task demand
("Workflow-Aware Cluster Management"), and the cluster manager publishes
utilisation stats and harvestable capacity ("Resource-Aware Workflow
Orchestration").  These dataclasses are that protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple


class ScalingAction(enum.Enum):
    """Scaling directions the cluster manager can command."""

    SCALE_UP = "scale_up"
    SCALE_DOWN = "scale_down"
    REBALANCE = "rebalance"


@dataclass(frozen=True)
class ResourceStatsMessage:
    """Cluster manager -> orchestrator: current resource availability."""

    timestamp: float
    free_gpus: int
    total_gpus: int
    free_cpu_cores: int
    total_cpu_cores: int
    gpu_utilization: float
    cpu_utilization: float
    #: GPUs consumed per running model/tool instance, keyed by agent name.
    per_model_gpus: Dict[str, int] = field(default_factory=dict)
    #: CPU cores consumed per running model/tool instance.
    per_model_cpu_cores: Dict[str, int] = field(default_factory=dict)
    #: Harvestable (spot) GPUs currently available.
    harvestable_gpus: int = 0
    #: Every distinct node shape as ``(GPU generation, GPUs, CPU cores)``,
    #: sorted: a deployment lands on one node, so feasibility is per node.
    node_shapes: Tuple[Tuple[str, int, int], ...] = ()

    def planning_digest(self) -> Tuple:
        """Hashable digest of the fields configuration planning reads.

        The planner's feasibility check uses the node shapes; its warm-model
        preference uses the *set* of running agents.
        Timestamps, utilisation fractions, and exact per-model consumption do
        not influence plan output, so two snapshots with equal digests always
        plan identically — which is what makes plans cacheable across
        submissions.
        """
        return (
            self.node_shapes,
            tuple(sorted(set(self.per_model_gpus) | set(self.per_model_cpu_cores))),
        )


@dataclass(frozen=True)
class ScalingCommand:
    """Cluster manager decision to resize a model/tool deployment."""

    action: ScalingAction
    agent_name: str
    delta_gpus: int = 0
    delta_cpu_cores: int = 0
    reason: str = ""


@dataclass
class WorkflowAnnouncement:
    """Orchestrator -> cluster manager: DAG visibility for one workflow.

    ``upcoming_demand`` maps an interface value (``"speech_to_text"``) to
    the number of pending tasks that will need it; ``completed_tasks``/
    ``total_tasks`` give progress so the manager can anticipate when demand
    for an interface ends (the paper's example: reclaim Whisper's GPU for
    Llama once no Speech-to-Text work is expected).  The agent library maps
    interfaces to the deployment groups that serve them.

    The record is mutable: :class:`~repro.core.execution.WorkflowExecutor`
    announces one record when it starts and then updates it in place on
    every task completion (``timestamp`` and ``completed_tasks`` are
    overwritten, and an ``upcoming_demand`` entry is decremented and
    removed when it reaches zero, so the remaining keys keep their order).
    A reader that needs a snapshot must copy it.
    """

    workflow_id: str
    timestamp: float
    upcoming_demand: Dict[str, int] = field(default_factory=dict)
    completed_tasks: int = 0
    total_tasks: int = 0
    #: The workflow's stage names in topological order.
    critical_path: Tuple[str, ...] = ()

    @property
    def progress(self) -> float:
        if self.total_tasks == 0:
            return 0.0
        return self.completed_tasks / self.total_tasks
