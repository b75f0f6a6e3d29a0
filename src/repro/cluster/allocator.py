"""Resource requests, allocations, and the allocator.

The allocator is deliberately simple (this is the substrate, not the paper's
contribution): it places a request on a single node chosen by a pluggable
placement policy, claims the devices, and can later release them.  It also
tracks fragmentation, which the paper calls out as a consequence of
over-provisioning ("over-provisioning fragments resources").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.hardware import GpuGeneration
from repro.cluster.node import Node


#: Owner prefix identifying long-lived model/tool serving-instance requests
#: (vs short-lived per-workflow task lanes).  Shared by the deploy sites and
#: by placement policies that treat durable deployments specially.
MODEL_OWNER_PREFIX = "model:"


@dataclass(frozen=True)
class ResourceRequest:
    """A request for devices on behalf of ``owner`` (a workflow or model)."""

    owner: str
    gpus: int = 0
    cpu_cores: int = 0
    gpu_generation: Optional[GpuGeneration] = None

    def __post_init__(self) -> None:
        if self.gpus < 0 or self.cpu_cores < 0:
            raise ValueError("requested resources must be non-negative")
        if self.gpus == 0 and self.cpu_cores == 0:
            raise ValueError("request must ask for at least one GPU or CPU core")

    @property
    def is_gpu_request(self) -> bool:
        return self.gpus > 0


@dataclass(frozen=True)
class Allocation:
    """A granted request: concrete devices on a concrete node."""

    allocation_id: str
    owner: str
    node_id: str
    gpu_ids: Tuple[str, ...]
    cpu_cores: int
    gpu_generation: Optional[GpuGeneration] = None

    @property
    def gpu_count(self) -> int:
        return len(self.gpu_ids)


class Allocator:
    """Places :class:`ResourceRequest` objects onto cluster nodes."""

    def __init__(self, cluster: Cluster, policy: Optional["PlacementPolicy"] = None) -> None:
        # Imported here: the placement policies import this module.
        from repro.policies.base import PlacementPolicy
        from repro.policies.placement import FirstFitPolicy

        if policy is not None and not isinstance(policy, PlacementPolicy):
            raise TypeError(f"policy must be a PlacementPolicy, got {type(policy)!r}")
        self.cluster = cluster
        self.policy = policy or FirstFitPolicy()
        self._counter = itertools.count()
        self._active: Dict[str, Allocation] = {}
        #: owner -> {allocation_id: Allocation}: lets release_owner /
        #: allocations_for avoid scanning every active allocation.
        self._by_owner: Dict[str, Dict[str, Allocation]] = {}
        # Per-GPU-generation free-capacity buckets.  Free counts are kept in
        # sync by claim/release so candidate filtering never rescans device
        # lists; node membership is rebuilt when the cluster's topology
        # version changes (scale-out / spot preemption).
        self._nodes_by_generation: Dict[GpuGeneration, List[Node]] = {}
        self._free_gpus_by_generation: Dict[GpuGeneration, int] = {}
        self._topology_version = -1
        self._rebuild_generation_buckets()

    def _rebuild_generation_buckets(self) -> None:
        self._nodes_by_generation = {}
        self._free_gpus_by_generation = {}
        for node in self.cluster:
            if node.total_gpus:
                generation = node.gpu_generation
                self._nodes_by_generation.setdefault(generation, []).append(node)
                self._free_gpus_by_generation[generation] = (
                    self._free_gpus_by_generation.get(generation, 0) + node.free_gpu_count
                )
        self._topology_version = self.cluster.topology_version

    def _sync_topology(self) -> None:
        if self._topology_version != self.cluster.topology_version:
            self._rebuild_generation_buckets()

    # ------------------------------------------------------------------ #
    # Allocation lifecycle
    # ------------------------------------------------------------------ #
    def allocate(self, request: ResourceRequest) -> Optional[Allocation]:
        """Try to place ``request``.  Returns ``None`` if it does not fit."""
        candidates = self._candidate_nodes(request)
        if not candidates:
            return None
        node = self.policy.choose(request, candidates, self.active_allocations())
        if node is None:
            return None
        gpu_ids: Tuple[str, ...] = ()
        if request.gpus:
            gpu_ids = tuple(
                gpu.device_id for gpu in node.claim_gpus(request.gpus, request.owner)
            )
        if request.cpu_cores:
            node.claim_cpu_cores(request.cpu_cores, request.owner)
        allocation = Allocation(
            allocation_id=f"alloc-{next(self._counter)}",
            owner=request.owner,
            node_id=node.node_id,
            gpu_ids=gpu_ids,
            cpu_cores=request.cpu_cores,
            gpu_generation=node.gpu_generation if request.gpus else request.gpu_generation,
        )
        self._active[allocation.allocation_id] = allocation
        self._by_owner.setdefault(allocation.owner, {})[allocation.allocation_id] = allocation
        if gpu_ids:
            self._free_gpus_by_generation[node.gpu_generation] -= len(gpu_ids)
        return allocation

    def release(self, allocation: Allocation) -> None:
        """Return the allocation's devices to the free pool."""
        if allocation.allocation_id not in self._active:
            raise KeyError(f"unknown or already released allocation: {allocation.allocation_id}")
        self._sync_topology()
        node = self.cluster.node(allocation.node_id)
        if allocation.gpu_ids:
            node.release_gpus(allocation.gpu_ids, allocation.owner)
            self._free_gpus_by_generation[node.gpu_generation] += len(allocation.gpu_ids)
        if allocation.cpu_cores:
            node.release_cpu_cores(allocation.cpu_cores, allocation.owner)
        del self._active[allocation.allocation_id]
        owned = self._by_owner.get(allocation.owner)
        if owned is not None:
            owned.pop(allocation.allocation_id, None)
            if not owned:
                del self._by_owner[allocation.owner]

    def release_owner(self, owner: str) -> int:
        """Release every allocation held by ``owner``.  Returns the count."""
        to_release = list(self._by_owner.get(owner, {}).values())
        for allocation in to_release:
            self.release(allocation)
        return len(to_release)

    def reclaim_node(self, node_id: str) -> List[Allocation]:
        """Force-release every allocation on ``node_id``.

        This is the spot-preemption / server-failure path: the devices are
        going away, so the owners' claims are revoked whether or not work is
        still running.  Returns the reclaimed allocations (in allocation
        order) so callers can notify the owners.  The node itself is left in
        the cluster — and empty — so the caller can remove it.
        """
        self._sync_topology()
        self.cluster.node(node_id)  # KeyError for unknown nodes
        victims = [a for a in self._active.values() if a.node_id == node_id]
        for allocation in victims:
            self.release(allocation)
        return victims

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def active_allocations(self) -> List[Allocation]:
        return list(self._active.values())

    def allocations_for(self, owner: str) -> List[Allocation]:
        return list(self._by_owner.get(owner, {}).values())

    def can_satisfy(self, request: ResourceRequest) -> bool:
        """Whether the request would fit right now (without allocating)."""
        return bool(self._candidate_nodes(request))

    def gpu_fragmentation(self) -> float:
        """Fraction of free GPUs stranded on nodes that cannot host the
        largest single-node GPU request (node GPU count).

        A coarse fragmentation signal: 0.0 means free GPUs are consolidated,
        1.0 means every free GPU sits on a partially occupied node.
        """
        total_free = self.cluster.free_gpus
        if total_free == 0:
            return 0.0
        stranded = sum(
            node.free_gpu_count
            for node in self.cluster
            if 0 < node.free_gpu_count < node.total_gpus
        )
        return stranded / total_free

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _candidate_nodes(self, request: ResourceRequest) -> List[Node]:
        self._sync_topology()
        gpus = request.gpus
        cpu_cores = request.cpu_cores
        if gpus > 0 and request.gpu_generation is not None:
            # Generation bucket + aggregate free count: skip the scan
            # entirely when the generation cannot satisfy the request.
            if self._free_gpus_by_generation.get(request.gpu_generation, 0) < gpus:
                return []
            nodes = self._nodes_by_generation.get(request.gpu_generation, [])
        else:
            nodes = self.cluster
        return [n for n in nodes if n.can_fit(gpus, cpu_cores)]
