"""The Murakkab adaptive runtime.

The runtime owns the simulated cluster, the agent library and its profiles,
and the discrete-event engine.  ``submit`` runs one declarative job end to
end: orchestration (decompose -> map -> plan against live cluster stats),
DAG announcement to the cluster manager, execution with serving instances
and per-task CPU lanes, and finally energy / cost / quality accounting.

``launch`` (orchestrate and build the executor) and ``result_of`` (account
a finished executor) are the only launch and accounting steps of an
orchestrated job: ``submit`` and the multi-job coordinator
:func:`repro.core.multitenant.run_submissions` are thin callers of both, so
a choice the control plane pins reaches every way a job is executed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import calibration
from repro.agents.base import AgentInterface, AgentResult
from repro.agents.library import AgentLibrary, default_library
from repro.cluster.cluster import Cluster, paper_testbed
from repro.cluster.dynamics import ClusterDynamics, DynamicsConfig
from repro.cluster.hardware import get_cpu_spec
from repro.cluster.manager import ClusterManager
from repro.policies.base import PlacementPolicy
from repro.policies.placement import WorkflowAwarePolicy
from repro.core.constraints import ConstraintSet
from repro.core.execution import ServerPool, WorkflowExecutor
from repro.core.job import Job, JobResult
from repro.core.orchestrator import OrchestrationResult, WorkflowOrchestrator
from repro.core.planner import PlannerOverride
from repro.core.quality import cascade_quality, score_object_listing_answer
from repro.core.quality_control import QualityController
from repro.core.schedule import run_submission
from repro.fabric import FabricTopology, fabric_of
from repro.policies.bundles import PolicyBundle, PolicyLike, resolve_bundle
from repro.profiling.profiler import default_profile_store
from repro.profiling.store import ProfileStore
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import SimulationEngine
from repro.sim.trace import ExecutionTrace
from repro.workloads.video import SyntheticVideo

SECONDS_PER_HOUR = 3600.0


class MurakkabRuntime:
    """End-to-end runtime: declarative jobs in, measured results out."""

    #: Class of every executor :meth:`launch` builds (swapped by the
    #: reference oracle in repro.baselines.unoptimized).
    executor_class = WorkflowExecutor

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        library: Optional[AgentLibrary] = None,
        profile_store: Optional[ProfileStore] = None,
        engine: Optional[SimulationEngine] = None,
        placement_policy: Optional[PlacementPolicy] = None,
        max_cpu_cores_per_agent: int = calibration.STT_CPU_TOTAL_CORES,
        policy: PolicyLike = None,
        fabric: "FabricTopology | str | None" = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.cluster = cluster or paper_testbed()
        self.cluster_manager = ClusterManager(
            self.cluster,
            policy=placement_policy or WorkflowAwarePolicy(),
            time_source=lambda: self.engine.now,
        )
        self.library = library or default_library()
        # Memoized by library fingerprint: repeated runtime constructions over
        # an identical library reuse the profiling sweep (paper §3.3: system
        # overheads must stay <1% of workflow execution time).
        self.profile_store = profile_store or default_profile_store(self.library)
        self.orchestrator = WorkflowOrchestrator(self.library, self.profile_store)
        self.orchestrator.planner.max_cpu_cores_per_agent = max_cpu_cores_per_agent
        #: Installed cluster-dynamics schedule, or ``None`` for the frozen
        #: testbed (see :meth:`attach_dynamics`).
        self.dynamics: Optional[ClusterDynamics] = None
        #: Installed control-plane policy bundle; ``None`` means the stock
        #: behaviour (every layer falls back to its default policy).
        self.policy: Optional[PolicyBundle] = None
        #: Attached cluster interconnect model, or ``None`` for the
        #: historical free-data-movement behaviour.
        self.fabric: Optional[FabricTopology] = None
        #: This runtime's scope in the schedule memo, cached with what it
        #: was computed from (see :mod:`repro.core.schedule`).
        self._schedule_scope: Optional[tuple] = None
        if policy is not None:
            if placement_policy is not None:
                # Refuse the ambiguity rather than let the bundle fingerprint
                # (which keys plan caches and trace memos, and is printed by
                # reports) misdescribe the placement actually installed.
                raise ValueError(
                    "pass either placement_policy or a policy bundle, not both; "
                    "to customise one seam, build a PolicyBundle with the "
                    "desired placement policy"
                )
            self.set_policy(policy)
        if fabric is not None:
            self.set_fabric(fabric)

    @property
    def planner(self):
        """The configuration planner (owned by the orchestrator)."""
        return self.orchestrator.planner

    # ------------------------------------------------------------------ #
    # Control-plane policy
    # ------------------------------------------------------------------ #
    def set_policy(self, policy: PolicyLike) -> PolicyBundle:
        """Install a control-plane policy bundle on every decision seam.

        Accepts a :class:`~repro.policies.bundles.PolicyBundle`, a registered
        bundle name, or ``None`` for the ``default`` bundle.  Placement takes
        effect on the allocator, scheduling on the configuration planner and
        the task mapper.  The planner's decision cache is keyed by the policy
        fingerprint, so switching bundles on a live runtime can never replay
        another policy's cached plans.
        """
        bundle = resolve_bundle(policy)
        self.policy = bundle
        self.cluster_manager.allocator.policy = bundle.placement
        self.orchestrator.planner.scheduling_policy = bundle.scheduling
        self.orchestrator.mapper.scheduling_policy = bundle.scheduling
        if self.fabric is not None:
            self._attach_fabric_to_placement()
        return bundle

    # ------------------------------------------------------------------ #
    # Cluster fabric
    # ------------------------------------------------------------------ #
    def set_fabric(self, fabric: "FabricTopology | str | None") -> Optional[FabricTopology]:
        """Attach (or detach, with ``None``) the cluster interconnect model.

        Accepts a :class:`~repro.fabric.FabricTopology`, a registered profile
        name, or a ``FabricTopology.to_dict`` mapping.  Subsequent executors
        charge inter-stage payloads against the fabric's links, the planner's
        decision cache keys on the fabric fingerprint, and a locality-aware
        placement policy in the installed bundle is handed the topology so it
        can see rack boundaries.
        """
        topology = fabric_of(fabric)
        self.fabric = topology
        self.orchestrator.planner.fabric = topology
        self._attach_fabric_to_placement()
        return topology

    def _attach_fabric_to_placement(self) -> None:
        policies = [self.cluster_manager.allocator.policy]
        if self.policy is not None and self.policy.placement not in policies:
            policies.append(self.policy.placement)
        for policy in policies:
            attach = getattr(policy, "attach_fabric", None)
            if attach is not None:
                attach(self.fabric)

    def quality_controller(self) -> QualityController:
        """A quality controller over this runtime's profiles, using the
        installed bundle's quality-adaptation policy."""
        return QualityController(
            self.profile_store,
            policy=self.policy.quality if self.policy is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Cluster dynamics
    # ------------------------------------------------------------------ #
    def attach_dynamics(
        self, dynamics: "ClusterDynamics | DynamicsConfig | None"
    ) -> Optional[ClusterDynamics]:
        """Install a disruption schedule (spot windows, failures, autoscale)
        on this runtime's engine and cluster manager.

        Accepts a :class:`~repro.cluster.dynamics.DynamicsConfig` (wrapped in
        a fresh :class:`~repro.cluster.dynamics.ClusterDynamics`) or an
        uninstalled ``ClusterDynamics``.  Subsequent submissions register
        their executors with it, so preempted/failed nodes requeue or replan
        the affected tasks instead of stalling.
        """
        if dynamics is None:
            return None
        if isinstance(dynamics, DynamicsConfig):
            dynamics = ClusterDynamics(dynamics)
        if not dynamics.installed:
            dynamics.install(self.engine, self.cluster_manager)
        self.dynamics = dynamics
        # Surface the disruption-log version to policies via PlanContext.
        planner = self.orchestrator.planner
        planner.dynamics_version_source = lambda: dynamics.log.version
        config = dynamics.config
        planner.capacity_can_grow = config.spot is not None or config.autoscale
        return dynamics

    def make_replanner(
        self,
        constraint_set: ConstraintSet,
        overrides: Optional[Dict[AgentInterface, PlannerOverride]] = None,
        spec_digest: str = "",
    ):
        """Per-interface replanning hook for disrupted executors."""
        overrides = overrides or {}

        def replan(interface: AgentInterface):
            stats = self.cluster_manager.stats()
            return self.orchestrator.planner.plan_interface(
                interface,
                constraint_set,
                stats,
                override=overrides.get(interface),
                spec_digest=spec_digest,
            )

        return replan

    # ------------------------------------------------------------------ #
    # Job submission
    # ------------------------------------------------------------------ #
    def launch(
        self,
        job: Job,
        overrides: Optional[Dict[AgentInterface, PlannerOverride]],
        pool: ServerPool,
        on_finish: Optional[Callable[[WorkflowExecutor], None]] = None,
    ) -> Tuple[WorkflowExecutor, OrchestrationResult, float]:
        """Orchestrate ``job`` now and build its (not yet started) executor.

        The one launch path of every orchestrated job, single submission
        and multi-job serving alike: bundle-pinned overrides are merged
        (explicit per-call overrides win on conflicting interfaces), the job
        is prepared against live cluster stats, its orchestration interval
        is recorded, and the executor is registered with any attached
        dynamics schedule.  Returns ``(executor, orchestration, delay)``;
        the caller starts the executor on ``orchestration.graph`` after
        ``delay`` (the decomposition latency).
        """
        if self.policy is not None and self.policy.overrides:
            merged: Dict[AgentInterface, PlannerOverride] = dict(self.policy.overrides)
            if overrides:
                merged.update(overrides)
            overrides = merged
        now = self.engine.now
        orchestration = self.orchestrator.prepare(
            job, cluster_stats=self.cluster_manager.stats(), overrides=overrides
        )
        delay = orchestration.decomposition_latency_s or calibration.DAG_CREATION_SECONDS
        trace = ExecutionTrace(label=job.job_id)
        trace.add(
            task_id=f"{job.job_id}/orchestration",
            task_name="job decomposition (orchestrator LLM)",
            category="Orchestration",
            start=now,
            end=now + delay,
            cpu_cores=1,
            cpu_utilization=0.1,
            metadata={"workflow": job.job_id},
        )
        dynamics = self.dynamics
        executor = self.executor_class(
            engine=self.engine,
            cluster_manager=self.cluster_manager,
            library=self.library,
            plan=orchestration.plan,
            server_pool=pool,
            trace=trace,
            workflow_id=job.job_id,
            on_finish=on_finish,
            replanner=(
                self.make_replanner(
                    job.constraint_set(), overrides, spec_digest=job.spec_digest
                )
                if dynamics is not None
                else None
            ),
            stop_when_finished=dynamics is not None,
            fabric=self.fabric,
        )
        if dynamics is not None:
            dynamics.register_executor(executor)
        return executor, orchestration, delay

    def submit(
        self,
        job: Job,
        overrides: Optional[Dict[AgentInterface, PlannerOverride]] = None,
        keep_warm: bool = False,
        server_pool: Optional[ServerPool] = None,
    ) -> JobResult:
        """Run ``job`` to completion and return its result and metrics.

        A submission that starts on an idle engine may replay the recorded
        schedule of an identical earlier one instead of simulating it
        (:mod:`repro.core.schedule`); its result is the same to the bit.
        """
        pool = server_pool or ServerPool(self.cluster_manager, self.library)
        executor, orchestration, delay = self.launch(job, overrides, pool)
        try:
            run_submission(self, executor, orchestration.graph, delay, pool)
        except BaseException:
            # Give up cleanly, whatever failed (an unrunnable workflow, or a
            # shape no node can hold): cancel the workflow's in-flight
            # events and release everything it holds, so later jobs on the
            # shared engine never see its zombies; tear down the per-job
            # pool exactly as the success path would.
            executor.abort()
            if self.dynamics is not None:
                self.dynamics.job_failed(executor)
            if not keep_warm and server_pool is None:
                pool.teardown_all()
            raise
        result = self.result_of(job, orchestration, executor, pool)
        if not keep_warm and server_pool is None:
            pool.teardown_all()
        return result

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def result_of(
        self,
        job: Job,
        orchestration: OrchestrationResult,
        executor: WorkflowExecutor,
        pool: ServerPool,
    ) -> JobResult:
        """Account a finished executor's job against ``pool`` as it is now.

        Releases the executor from any attached dynamics schedule (folding
        its disruption counters into the log) and measures the job from its
        orchestration interval to its last completion.
        """
        if self.dynamics is not None:
            self.dynamics.job_finished(executor)
        trace = executor.trace
        results = executor.results
        started_at = trace.start_time()
        finished_at = (
            executor.finished_at if executor.finished_at is not None else self.engine.now
        )
        provisioned_gpus = pool.total_gpus()
        accountant = EnergyAccountant(
            gpu_power=self.cluster.nodes[0].gpu_spec.power,
            cpu_power_per_core_w=get_cpu_spec().active_w_per_core,
        )
        energy = accountant.account(
            trace, provisioned_gpus=provisioned_gpus, window=(started_at, finished_at)
        )
        cost = self._estimate_cost(trace, pool, finished_at - started_at)
        output = self._collect_output(orchestration, results)
        quality = self._estimate_quality(job, orchestration, output)

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
            plan=orchestration.plan,
            graph=orchestration.graph,
            react_trace=orchestration.react_trace,
            provisioned_gpus=provisioned_gpus,
            transfer_s=executor.transfer_seconds,
            transferred_bytes=executor.transferred_bytes,
            cross_rack_bytes=executor.cross_rack_bytes,
            transfer_wh=executor.transfer_wh,
            transfer_events=executor.transfer_events,
        )

    def _estimate_cost(self, trace: ExecutionTrace, pool: ServerPool, duration_s: float) -> float:
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
            agent_name = interval.metadata.get("agent")
            if agent_name and agent_name in self.library:
                implementation = self.library.get(str(agent_name))
                if getattr(implementation, "external", False):
                    cost += getattr(implementation, "cost_per_request", 0.0)
        return cost

    @staticmethod
    def _collect_output(
        orchestration: OrchestrationResult, results: Dict[str, AgentResult]
    ) -> Dict[str, object]:
        output: Dict[str, object] = {}
        for task in orchestration.graph.leaves():
            result = results.get(task.task_id)
            if result is None:
                continue
            output.update(result.output)
        return output

    def _estimate_quality(
        self,
        job: Job,
        orchestration: OrchestrationResult,
        output: Dict[str, object],
    ) -> float:
        planned = cascade_quality(orchestration.plan.stage_qualities())
        answer = str(output.get("answer", ""))
        ground_truth = self._ground_truth_objects(job)
        if answer and ground_truth:
            measured = score_object_listing_answer(answer, ground_truth)
            return min(planned, measured) if planned else measured
        return planned

    @staticmethod
    def _ground_truth_objects(job: Job) -> List[str]:
        objects: List[str] = []
        for item in job.inputs:
            if isinstance(item, SyntheticVideo):
                for obj in item.all_objects():
                    if obj not in objects:
                        objects.append(obj)
            elif isinstance(item, dict) and "scenes" in item:
                for scene in item["scenes"]:
                    for obj in scene.get("objects", []):
                        if obj not in objects:
                            objects.append(obj)
        return objects
