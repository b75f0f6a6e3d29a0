"""A cluster is an ordered collection of nodes plus cluster-wide queries."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro import calibration
from repro.cluster.hardware import GpuGeneration
from repro.cluster.node import Node


class Cluster:
    """An ordered collection of :class:`~repro.cluster.node.Node` objects."""

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._nodes: List[Node] = list(nodes)
        ids = [node.node_id for node in self._nodes]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate node ids in cluster: {ids}")
        self._by_id: Dict[str, Node] = {node.node_id: node for node in self._nodes}
        self._topology_version = 0
        #: Memoized :attr:`total_cpu_cores`; node shapes are fixed, so only
        #: adding or removing a node changes it.
        self._total_cpu_cores: Optional[int] = None

    @property
    def topology_version(self) -> int:
        """Bumped whenever nodes are added or removed; consumers holding
        node indexes (e.g. the allocator's generation buckets) compare this
        to detect scale-out/scale-in and rebuild."""
        return self._topology_version

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node: {node_id!r}") from None

    def add_node(self, node: Node) -> None:
        """Add a node (used by scale-out paths and the spot capacity model)."""
        if node.node_id in self._by_id:
            raise ValueError(f"node {node.node_id!r} already in cluster")
        self._nodes.append(node)
        self._by_id[node.node_id] = node
        self._topology_version += 1
        self._total_cpu_cores = None

    def remove_node(self, node_id: str) -> Node:
        """Remove a node (scale-in / spot preemption).  It must be empty."""
        node = self.node(node_id)
        if node.allocated_gpu_count or node.allocated_cpu_cores:
            raise ValueError(f"node {node_id!r} still has active allocations")
        self._nodes.remove(node)
        del self._by_id[node_id]
        self._topology_version += 1
        self._total_cpu_cores = None
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #
    @property
    def total_gpus(self) -> int:
        return sum(node.total_gpus for node in self._nodes)

    @property
    def free_gpus(self) -> int:
        return sum(node.free_gpu_count for node in self._nodes)

    @property
    def total_cpu_cores(self) -> int:
        if self._total_cpu_cores is None:
            self._total_cpu_cores = sum(node.total_cpu_cores for node in self._nodes)
        return self._total_cpu_cores

    @property
    def free_cpu_cores(self) -> int:
        return sum(node.free_cpu_cores for node in self._nodes)

    def gpu_utilization_fraction(self) -> float:
        """Fraction of GPUs currently allocated."""
        if self.total_gpus == 0:
            return 0.0
        return 1.0 - self.free_gpus / self.total_gpus

    def cpu_utilization_fraction(self) -> float:
        """Fraction of CPU cores currently allocated."""
        if self.total_cpu_cores == 0:
            return 0.0
        return 1.0 - self.free_cpu_cores / self.total_cpu_cores

    def nodes_with_generation(self, generation: GpuGeneration) -> List[Node]:
        return [node for node in self._nodes if node.gpu_generation is generation]

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={len(self._nodes)}, gpus={self.free_gpus}/{self.total_gpus} free, "
            f"cores={self.free_cpu_cores}/{self.total_cpu_cores} free)"
        )


def paper_testbed(
    node_count: Optional[int] = None,
    gpu_generation: GpuGeneration = GpuGeneration.A100,
) -> Cluster:
    """Build the paper's evaluation cluster.

    Two Standard_ND96amsr_A100_v4 VMs, each with 96 vCPUs and 8 A100 GPUs
    (paper §4 Setup).  ``node_count`` and ``gpu_generation`` can be overridden
    for the Table-1 lever sweeps.
    """
    count = calibration.NODE_COUNT if node_count is None else node_count
    nodes = [
        Node(
            node_id=f"node{i}",
            gpu_count=calibration.NODE_GPUS,
            cpu_cores=calibration.NODE_VCPUS,
            gpu_generation=gpu_generation,
        )
        for i in range(count)
    ]
    return Cluster(nodes)
