"""A single node (VM) with GPUs and CPU cores.

Nodes track which of their devices are currently allocated.  Allocation is
performed through :class:`repro.cluster.allocator.Allocator`; the node only
enforces local invariants (a device cannot be double-allocated, core counts
cannot go negative).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.hardware import CpuSpec, GpuGeneration, GpuSpec, get_cpu_spec, get_gpu_spec


@dataclass
class GpuDevice:
    """One physical GPU within a node."""

    device_id: str
    spec: GpuSpec
    allocated_to: Optional[str] = None


class Node:
    """A VM with a fixed complement of GPUs and CPU cores."""

    def __init__(
        self,
        node_id: str,
        gpu_count: int,
        cpu_cores: int,
        gpu_generation: GpuGeneration = GpuGeneration.A100,
        cpu_sku: str = "EPYC-7V12",
    ) -> None:
        if gpu_count < 0:
            raise ValueError("gpu_count must be non-negative")
        if cpu_cores < 0:
            raise ValueError("cpu_cores must be non-negative")
        self.node_id = node_id
        self.gpu_spec: GpuSpec = get_gpu_spec(gpu_generation)
        self.cpu_spec: CpuSpec = get_cpu_spec(cpu_sku)
        self.gpus: List[GpuDevice] = [
            GpuDevice(device_id=f"{node_id}/gpu{i}", spec=self.gpu_spec)
            for i in range(gpu_count)
        ]
        self.total_cpu_cores = cpu_cores
        self._allocated_cpu_cores: Dict[str, int] = {}
        self._allocated_cpu_total = 0
        # Min-heap of free device indices: claims take the lowest indices
        # (device order, matching the original free-list scan) in O(log n)
        # instead of rebuilding the free list on every capacity query.
        self._free_gpu_slots: List[int] = list(range(gpu_count))
        self._gpu_index: Dict[str, int] = {
            gpu.device_id: i for i, gpu in enumerate(self.gpus)
        }

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #
    @property
    def gpu_generation(self) -> GpuGeneration:
        return self.gpu_spec.generation

    @property
    def total_gpus(self) -> int:
        return len(self.gpus)

    @property
    def free_gpus(self) -> List[GpuDevice]:
        return [self.gpus[i] for i in sorted(self._free_gpu_slots)]

    @property
    def free_gpu_count(self) -> int:
        return len(self._free_gpu_slots)

    @property
    def allocated_gpu_count(self) -> int:
        return self.total_gpus - self.free_gpu_count

    @property
    def allocated_cpu_cores(self) -> int:
        return self._allocated_cpu_total

    @property
    def free_cpu_cores(self) -> int:
        return self.total_cpu_cores - self._allocated_cpu_total

    def can_fit(self, gpus: int, cpu_cores: int) -> bool:
        """Whether a request for ``gpus`` GPUs and ``cpu_cores`` cores fits."""
        return self.free_gpu_count >= gpus and self.free_cpu_cores >= cpu_cores

    # ------------------------------------------------------------------ #
    # Allocation bookkeeping (driven by the Allocator)
    # ------------------------------------------------------------------ #
    def claim_gpus(self, count: int, owner: str) -> List[GpuDevice]:
        """Mark ``count`` free GPUs as allocated to ``owner`` (lowest device
        indices first, matching a scan of the device list)."""
        slots = self._free_gpu_slots
        if count > len(slots):
            raise ValueError(
                f"node {self.node_id}: requested {count} GPUs but only "
                f"{len(slots)} free"
            )
        claimed = []
        for _ in range(count):
            gpu = self.gpus[heapq.heappop(slots)]
            gpu.allocated_to = owner
            claimed.append(gpu)
        return claimed

    def claim_cpu_cores(self, count: int, owner: str) -> int:
        """Reserve ``count`` CPU cores for ``owner``."""
        if count > self.free_cpu_cores:
            raise ValueError(
                f"node {self.node_id}: requested {count} cores but only "
                f"{self.free_cpu_cores} free"
            )
        self._allocated_cpu_cores[owner] = self._allocated_cpu_cores.get(owner, 0) + count
        self._allocated_cpu_total += count
        return count

    def release_gpus(self, device_ids: Sequence[str], owner: str) -> None:
        """Release previously claimed GPUs back to the free pool."""
        for device_id in device_ids:
            index = self._gpu_index.get(device_id)
            if index is None:
                raise KeyError(f"node {self.node_id}: unknown GPU {device_id!r}")
            gpu = self.gpus[index]
            if gpu.allocated_to != owner:
                raise ValueError(
                    f"GPU {device_id} is owned by {gpu.allocated_to!r}, not {owner!r}"
                )
            gpu.allocated_to = None
            heapq.heappush(self._free_gpu_slots, index)

    def release_cpu_cores(self, count: int, owner: str) -> None:
        """Release ``count`` CPU cores previously claimed by ``owner``."""
        held = self._allocated_cpu_cores.get(owner, 0)
        if count > held:
            raise ValueError(
                f"node {self.node_id}: {owner!r} holds {held} cores, cannot release {count}"
            )
        remaining = held - count
        if remaining:
            self._allocated_cpu_cores[owner] = remaining
        else:
            self._allocated_cpu_cores.pop(owner, None)
        self._allocated_cpu_total -= count

    def __repr__(self) -> str:
        return (
            f"Node({self.node_id!r}, gpus={self.free_gpu_count}/{self.total_gpus} free, "
            f"cores={self.free_cpu_cores}/{self.total_cpu_cores} free)"
        )
