"""The cluster manager.

The cluster manager owns the cluster's devices, runs model/tool serving
instances on them, publishes utilisation stats to the workflow orchestrator,
and — given DAG visibility from announced workflows — plans rebalancing
(e.g. reclaim the Whisper GPU for Llama once no more Speech-to-Text work is
expected, the paper's own example in §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.allocator import (
    Allocation,
    Allocator,
    MODEL_OWNER_PREFIX,
    ResourceRequest,
)
from repro.cluster.cluster import Cluster
from repro.cluster.hardware import GpuGeneration
from repro.policies.base import PlacementPolicy
from repro.cluster.spot import SpotCapacityModel
from repro.cluster.telemetry_exchange import (
    ResourceStatsMessage,
    ScalingAction,
    ScalingCommand,
    WorkflowAnnouncement,
)


#: Alias: the stats snapshot type the manager publishes to the orchestrator.
ClusterStats = ResourceStatsMessage


@dataclass
class ModelInstance:
    """A running model/tool serving instance bound to an allocation."""

    agent_name: str
    allocation: Allocation
    started_at: float
    warm: bool = True

    @property
    def gpus(self) -> int:
        return self.allocation.gpu_count

    @property
    def cpu_cores(self) -> int:
        return self.allocation.cpu_cores


@dataclass(frozen=True)
class AllocationEvent:
    """Timestamped allocate/release record, consumed by telemetry."""

    time: float
    kind: str  # "allocate" or "release"
    allocation: Allocation


class ClusterManager:
    """Owns the cluster, serves allocations, and plans scaling decisions."""

    def __init__(
        self,
        cluster: Cluster,
        policy: Optional[PlacementPolicy] = None,
        time_source: Optional[Callable[[], float]] = None,
        spot_model: Optional[SpotCapacityModel] = None,
    ) -> None:
        self.cluster = cluster
        self.allocator = Allocator(cluster, policy)
        self._time_source = time_source or (lambda: 0.0)
        self.spot_model = spot_model
        self._instances: Dict[str, List[ModelInstance]] = {}
        self._announcements: Dict[str, WorkflowAnnouncement] = {}
        self._events: List[AllocationEvent] = []

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._time_source()

    # ------------------------------------------------------------------ #
    # Raw allocation API (used by the runtime for short-lived task slots)
    # ------------------------------------------------------------------ #
    def allocate(self, request: ResourceRequest) -> Optional[Allocation]:
        allocation = self.allocator.allocate(request)
        if allocation is not None:
            self._events.append(AllocationEvent(self.now, "allocate", allocation))
        return allocation

    def release(self, allocation: Allocation) -> None:
        self.allocator.release(allocation)
        self._events.append(AllocationEvent(self.now, "release", allocation))

    def can_satisfy(self, request: ResourceRequest) -> bool:
        return self.allocator.can_satisfy(request)

    @property
    def allocation_events(self) -> List[AllocationEvent]:
        return list(self._events)

    # ------------------------------------------------------------------ #
    # Model/tool serving instances (long-lived deployments)
    # ------------------------------------------------------------------ #
    def deploy_model(
        self,
        agent_name: str,
        gpus: int = 0,
        cpu_cores: int = 0,
        gpu_generation: Optional[GpuGeneration] = None,
    ) -> ModelInstance:
        """Start a serving instance for ``agent_name`` with the given shape.

        Raises:
            RuntimeError: if the cluster cannot fit the instance.
        """
        request = ResourceRequest(
            owner=f"{MODEL_OWNER_PREFIX}{agent_name}",
            gpus=gpus,
            cpu_cores=cpu_cores,
            gpu_generation=gpu_generation,
        )
        allocation = self.allocate(request)
        if allocation is None:
            raise RuntimeError(
                f"cannot deploy {agent_name!r}: request for {gpus} GPUs / "
                f"{cpu_cores} cores does not fit "
                f"(free: {self.cluster.free_gpus} GPUs, {self.cluster.free_cpu_cores} cores)"
            )
        instance = ModelInstance(
            agent_name=agent_name, allocation=allocation, started_at=self.now
        )
        self._instances.setdefault(agent_name, []).append(instance)
        return instance

    def teardown_model(self, instance: ModelInstance) -> None:
        """Stop a serving instance and release its devices."""
        instances = self._instances.get(instance.agent_name, [])
        if instance not in instances:
            raise KeyError(f"instance for {instance.agent_name!r} is not registered")
        instances.remove(instance)
        if not instances:
            self._instances.pop(instance.agent_name, None)
        self.release(instance.allocation)

    def teardown_all(self) -> None:
        """Stop every serving instance (end of workflow / end of experiment)."""
        for instances in list(self._instances.values()):
            for instance in list(instances):
                self.teardown_model(instance)

    def instances_for(self, agent_name: str) -> List[ModelInstance]:
        return list(self._instances.get(agent_name, []))

    # ------------------------------------------------------------------ #
    # Capacity loss (spot preemption / whole-server failure)
    # ------------------------------------------------------------------ #
    def handle_node_loss(self, node_id: str) -> Tuple[List[Allocation], List[ModelInstance]]:
        """Evict ``node_id``: drop its serving instances, reclaim every
        allocation on it, and remove it from the cluster.

        Unlike :meth:`teardown_model`, the devices are *gone*, not returned:
        serving instances on the node are deregistered without a normal
        release, and task-level allocations are revoked out from under their
        owners.  Returns ``(reclaimed allocations, lost instances)`` so the
        dynamics layer can notify executors and count the disruption.
        """
        self.cluster.node(node_id)  # KeyError for unknown nodes
        lost_instances: List[ModelInstance] = []
        for agent_name, instances in list(self._instances.items()):
            survivors = [i for i in instances if i.allocation.node_id != node_id]
            lost_instances.extend(
                i for i in instances if i.allocation.node_id == node_id
            )
            if survivors:
                self._instances[agent_name] = survivors
            else:
                self._instances.pop(agent_name)
        reclaimed = self.allocator.reclaim_node(node_id)
        now = self.now
        for allocation in reclaimed:
            self._events.append(AllocationEvent(now, "reclaim", allocation))
        self.cluster.remove_node(node_id)
        return reclaimed, lost_instances

    def warm_agents(self) -> List[str]:
        """Agent names that currently have at least one warm instance."""
        return [name for name, insts in self._instances.items() if any(i.warm for i in insts)]

    def total_deployed_gpus(self) -> int:
        return sum(i.gpus for insts in self._instances.values() for i in insts)

    def total_deployed_cpu_cores(self) -> int:
        return sum(i.cpu_cores for insts in self._instances.values() for i in insts)

    # ------------------------------------------------------------------ #
    # Telemetry towards the orchestrator
    # ------------------------------------------------------------------ #
    def stats(self) -> ResourceStatsMessage:
        """Snapshot of cluster availability and per-model consumption."""
        per_model_gpus: Dict[str, int] = {}
        per_model_cores: Dict[str, int] = {}
        for name, instances in self._instances.items():
            per_model_gpus[name] = sum(i.gpus for i in instances)
            per_model_cores[name] = sum(i.cpu_cores for i in instances)
        harvestable = (
            self.spot_model.harvestable_gpus(self.now) if self.spot_model else 0
        )
        gpus_by_generation: Dict[str, int] = {}
        for node in self.cluster:
            if node.total_gpus:
                key = node.gpu_generation.value
                gpus_by_generation[key] = gpus_by_generation.get(key, 0) + node.total_gpus
        return ResourceStatsMessage(
            timestamp=self.now,
            free_gpus=self.cluster.free_gpus,
            total_gpus=self.cluster.total_gpus,
            free_cpu_cores=self.cluster.free_cpu_cores,
            total_cpu_cores=self.cluster.total_cpu_cores,
            gpu_utilization=self.cluster.gpu_utilization_fraction(),
            cpu_utilization=self.cluster.cpu_utilization_fraction(),
            per_model_gpus=per_model_gpus,
            per_model_cpu_cores=per_model_cores,
            harvestable_gpus=harvestable,
            gpus_by_generation=gpus_by_generation,
        )

    # ------------------------------------------------------------------ #
    # Workflow-aware rebalancing
    # ------------------------------------------------------------------ #
    def announce_workflow(self, announcement: WorkflowAnnouncement) -> None:
        """Record (or update) DAG visibility for a workflow."""
        self._announcements[announcement.workflow_id] = announcement

    def retract_workflow(self, workflow_id: str) -> None:
        """Remove a finished workflow's announcement."""
        self._announcements.pop(workflow_id, None)

    def aggregate_upcoming_demand(self) -> Dict[str, int]:
        """Pending tasks per agent name summed across announced workflows."""
        demand: Dict[str, int] = {}
        for announcement in self._announcements.values():
            for agent_name, count in announcement.upcoming_demand.items():
                demand[agent_name] = demand.get(agent_name, 0) + count
        return demand

    def plan_rebalancing(self) -> List[ScalingCommand]:
        """Derive scaling commands from DAG visibility.

        * Deployed agents with zero upcoming demand are scaled down (their
          devices can be reclaimed for other models).
        * Announced agents with demand but no running instance are scaled up.
        """
        demand = self.aggregate_upcoming_demand()
        commands: List[ScalingCommand] = []
        for agent_name, instances in self._instances.items():
            if demand.get(agent_name, 0) == 0:
                commands.append(
                    ScalingCommand(
                        action=ScalingAction.SCALE_DOWN,
                        agent_name=agent_name,
                        delta_gpus=-sum(i.gpus for i in instances),
                        delta_cpu_cores=-sum(i.cpu_cores for i in instances),
                        reason="no upcoming demand in any announced workflow DAG",
                    )
                )
        for agent_name, count in demand.items():
            if count > 0 and agent_name not in self._instances:
                commands.append(
                    ScalingCommand(
                        action=ScalingAction.SCALE_UP,
                        agent_name=agent_name,
                        reason=f"{count} upcoming tasks but no running instance",
                    )
                )
        return commands

    def apply_scale_downs(self, commands: List[ScalingCommand]) -> int:
        """Execute SCALE_DOWN commands; returns the number of GPUs reclaimed."""
        reclaimed = 0
        for command in commands:
            if command.action is not ScalingAction.SCALE_DOWN:
                continue
            for instance in self.instances_for(command.agent_name):
                reclaimed += instance.gpus
                self.teardown_model(instance)
        return reclaimed
