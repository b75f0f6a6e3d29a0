"""Cluster substrate: hardware, nodes, allocation, and the cluster manager.

This package simulates the cloud-platform layer of the paper's stack
(Figure 1/2): heterogeneous hardware SKUs, nodes, a resource allocator, spot
/ harvest capacity, and a cluster manager that exchanges utilisation stats
and scaling commands with the workflow orchestrator (the paper's
"Workflow-Aware Cluster Management" and "Resource-Aware Workflow
Orchestration" loops).
"""

from repro.cluster.hardware import (
    CPU_SKUS,
    GPU_SKUS,
    CpuSpec,
    DeviceKind,
    GpuGeneration,
    GpuSpec,
    get_cpu_spec,
    get_gpu_spec,
)
from repro.cluster.node import Node
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.allocator import Allocation, Allocator, ResourceRequest
from repro.policies.base import PlacementPolicy
from repro.policies.placement import (
    BestFitPolicy,
    FirstFitPolicy,
    SpreadPolicy,
    WorkflowAwarePolicy,
)
from repro.cluster.dynamics import (
    ClusterDynamics,
    DisruptionLog,
    DynamicsConfig,
    FailureModel,
    NodeFailure,
)
from repro.cluster.manager import ClusterManager, ClusterStats, ModelInstance
from repro.cluster.spot import SpotCapacityModel, SpotInstance
from repro.cluster.telemetry_exchange import (
    ResourceStatsMessage,
    ScalingCommand,
    WorkflowAnnouncement,
)

__all__ = [
    "CPU_SKUS",
    "GPU_SKUS",
    "CpuSpec",
    "DeviceKind",
    "GpuGeneration",
    "GpuSpec",
    "get_cpu_spec",
    "get_gpu_spec",
    "Node",
    "Cluster",
    "paper_testbed",
    "Allocation",
    "Allocator",
    "ResourceRequest",
    "PlacementPolicy",
    "FirstFitPolicy",
    "BestFitPolicy",
    "SpreadPolicy",
    "WorkflowAwarePolicy",
    "ClusterManager",
    "ClusterStats",
    "ModelInstance",
    "ClusterDynamics",
    "DisruptionLog",
    "DynamicsConfig",
    "FailureModel",
    "NodeFailure",
    "SpotCapacityModel",
    "SpotInstance",
    "ResourceStatsMessage",
    "ScalingCommand",
    "WorkflowAnnouncement",
]
