"""repro: a reproduction of "Towards Resource-Efficient Compound AI Systems"
(Murakkab, HotOS 2025).

The package provides:

* the declarative workflow programming model (``Job``, constraints) and the
  Murakkab adaptive runtime (``MurakkabRuntime``) — the paper's contribution;
* every substrate the paper depends on, simulated: a cluster of GPU/CPU
  nodes with a cluster manager, an agent/model/tool library with execution
  profiles, an LLM serving and orchestration layer, and synthetic workloads;
* the imperative baseline (``OmAgentBaseline``) the paper compares against;
* experiment harnesses that regenerate the paper's Figure 3, Table 1, and
  Table 2 (``repro.experiments``).

Quickstart::

    from repro import Job, MIN_COST, MurakkabRuntime

    job = Job(description="List objects shown/mentioned in the videos",
              inputs=["cats.mov", "formula_1.mov"],
              constraints=MIN_COST, quality_target=0.93)
    result = MurakkabRuntime().submit(job)
    print(result.summary())
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
from repro.core.job import Job, JobResult
from repro.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
)
from repro.capture import (
    CaptureError,
    QoEEntry,
    TraceCapture,
    capture_trace,
    replay_capture,
    replays_identically,
)
from repro.core.runtime import MurakkabRuntime
from repro.core.multitenant import TenantSubmission, run_submissions
from repro.core.planner import PlannerOverride
from repro.agents.base import AgentInterface, ExecutionMode, HardwareConfig
from repro.agents.library import AgentLibrary, default_library
from repro.baselines.omagent import OmAgentBaseline
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.dynamics import (
    ClusterDynamics,
    DisruptionLog,
    DynamicsConfig,
    FailureModel,
    NodeFailure,
)
from repro.cluster.spot import SpotCapacityModel, SpotInstance
from repro.client import JobHandle, MurakkabClient, Session, TraceHandle
from repro.loadgen import (
    ServiceLoadGenerator,
    TraceReport,
    UnknownWorkloadError,
    WorkloadRegistry,
    default_registry,
)
from repro.policies import (
    PolicyBundle,
    available_bundles,
    get_bundle,
    pinned_bundle,
    register_bundle,
    resolve_bundle,
)
from repro.service import AIWorkflowService, ServiceStats
from repro.sharding import ShardRouter, ShardedService
from repro.warmstate import WarmStateCache
from repro.workloads.arrival import (
    JobArrival,
    bursty_arrivals,
    diurnal_arrivals,
    merge_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.spec import (
    InputsSpec,
    SpecError,
    SpecIssue,
    StageSpec,
    WorkflowBuilder,
    WorkflowSpec,
    compile_spec,
)
from repro.workflows.video_understanding import (
    omagent_imperative_workflow,
    video_understanding_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "ConstraintSet",
    "MIN_COST",
    "MIN_LATENCY",
    "MIN_ENERGY",
    "MIN_POWER",
    "MAX_QUALITY",
    "Job",
    "JobResult",
    "MurakkabRuntime",
    "TenantSubmission",
    "run_submissions",
    "PlannerOverride",
    "AgentInterface",
    "ExecutionMode",
    "HardwareConfig",
    "AgentLibrary",
    "default_library",
    "OmAgentBaseline",
    "AIWorkflowService",
    "ServiceStats",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRejected",
    "TraceCapture",
    "QoEEntry",
    "CaptureError",
    "capture_trace",
    "replay_capture",
    "replays_identically",
    "ShardedService",
    "ShardRouter",
    "WarmStateCache",
    "ServiceLoadGenerator",
    "TraceReport",
    "UnknownWorkloadError",
    "WorkloadRegistry",
    "default_registry",
    "MurakkabClient",
    "Session",
    "JobHandle",
    "TraceHandle",
    "WorkflowSpec",
    "WorkflowBuilder",
    "StageSpec",
    "InputsSpec",
    "SpecError",
    "SpecIssue",
    "compile_spec",
    "JobArrival",
    "poisson_arrivals",
    "uniform_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "merge_arrivals",
    "Cluster",
    "paper_testbed",
    "ClusterDynamics",
    "DisruptionLog",
    "DynamicsConfig",
    "FailureModel",
    "NodeFailure",
    "SpotCapacityModel",
    "SpotInstance",
    "PolicyBundle",
    "available_bundles",
    "get_bundle",
    "register_bundle",
    "resolve_bundle",
    "pinned_bundle",
    "video_understanding_spec",
    "omagent_imperative_workflow",
    "__version__",
]
