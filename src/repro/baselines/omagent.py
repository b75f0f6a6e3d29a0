"""The OmAgent-derived imperative baseline executor (paper §4 "Baseline").

"The baseline workflow specifies a fixed execution without any intra-task
parallelism or opportunity to utilize idle resources.  Each scene and its
constituent frames are processed sequentially."

The baseline compiles the Listing-1 imperative workflow into the shared
task-graph IR and executes it with a *fixed* plan and strictly sequential
dispatch (one task at a time, in topological order), on the same simulated
cluster, with the same energy accounting as the Murakkab runtime — so the
comparison isolates exactly what the paper's levers change.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.agents.base import AgentResult
from repro.agents.library import AgentLibrary, default_library
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.hardware import get_cpu_spec
from repro.cluster.manager import ClusterManager
from repro.policies.base import PlacementPolicy
from repro.policies.placement import FirstFitPolicy
from repro.core.execution import ServerPool, WorkflowExecutor
from repro.core.job import JobResult
from repro.core.quality import cascade_quality
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace
from repro.workflows.imperative import ImperativeWorkflow
from repro.workflows.video_understanding import omagent_imperative_workflow
from repro.workloads.video import paper_videos

SECONDS_PER_HOUR = 3600.0


class OmAgentBaseline:
    """Runs an imperative workflow exactly as written: fixed and sequential."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        library: Optional[AgentLibrary] = None,
        engine: Optional[SimulationEngine] = None,
        placement_policy: Optional[PlacementPolicy] = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.cluster = cluster or paper_testbed()
        self.cluster_manager = ClusterManager(
            self.cluster,
            policy=placement_policy or FirstFitPolicy(),
            time_source=lambda: self.engine.now,
        )
        self.library = library or default_library()

    def run(
        self,
        workflow: Optional[ImperativeWorkflow] = None,
        inputs: Optional[Sequence[object]] = None,
        description: str = "",
    ) -> JobResult:
        """Execute ``workflow`` (default: the paper's Video Understanding
        baseline) over ``inputs`` (default: the two paper videos)."""
        workflow = workflow or omagent_imperative_workflow()
        inputs = list(inputs) if inputs is not None else paper_videos()
        job, graph, plan = workflow.compile(inputs, description=description, library=self.library)

        started_at = self.engine.now
        trace = ExecutionTrace(label=job.job_id)
        pool = ServerPool(self.cluster_manager, self.library)
        executor = WorkflowExecutor(
            engine=self.engine,
            cluster_manager=self.cluster_manager,
            library=self.library,
            plan=plan,
            server_pool=pool,
            trace=trace,
            sequential=True,
            # The imperative stack has no orchestrator/cluster-manager
            # information exchange (that is the paper's point).
            announce=False,
            workflow_id=job.job_id,
        )
        results: Dict[str, AgentResult] = executor.execute(graph)
        finished_at = executor.finished_at if executor.finished_at is not None else self.engine.now

        provisioned_gpus = pool.total_gpus()
        accountant = EnergyAccountant(
            gpu_power=self.cluster.nodes[0].gpu_spec.power,
            cpu_power_per_core_w=get_cpu_spec().active_w_per_core,
        )
        energy = accountant.account(
            trace, provisioned_gpus=provisioned_gpus, window=(started_at, finished_at)
        )
        cost = self._estimate_cost(pool, finished_at - started_at, trace)
        output: Dict[str, object] = {}
        for task in graph.leaves():
            result = results.get(task.task_id)
            if result is not None:
                output.update(result.output)
        quality = cascade_quality(plan.stage_qualities())
        pool.teardown_all()

        return JobResult(
            job_id=job.job_id,
            output=output,
            task_results=results,
            makespan_s=finished_at - started_at,
            started_at=started_at,
            finished_at=finished_at,
            energy=energy,
            cost=cost,
            quality=quality,
            trace=trace,
            plan=plan,
            graph=graph,
            provisioned_gpus=provisioned_gpus,
        )

    def _estimate_cost(self, pool: ServerPool, duration_s: float, trace: ExecutionTrace) -> float:
        gpu_spec = self.cluster.nodes[0].gpu_spec
        cpu_spec = get_cpu_spec()
        cost = 0.0
        for handle in pool.handles():
            cost += handle.gpus * gpu_spec.cost_per_hour * duration_s / SECONDS_PER_HOUR
            cost += (
                handle.instance.cpu_cores
                * cpu_spec.cost_per_core_hour
                * duration_s
                / SECONDS_PER_HOUR
            )
        for interval in trace:
            if interval.gpu_count == 0 and interval.cpu_cores > 0:
                cost += (
                    interval.cpu_cores
                    * cpu_spec.cost_per_core_hour
                    * interval.duration
                    / SECONDS_PER_HOUR
                )
        return cost
