"""AI Workflows-as-a-Service (AIWaaS) façade (paper §5).

"Similar to Functions-as-a-Service, we propose an AI Workflows-as-a-Service
model ... Applications will not need rewriting when new models or tools are
available — the runtime system will transparently adopt newer
implementations and resources as needed."

:class:`AIWorkflowService` is that façade over the Murakkab runtime: callers
submit natural-language jobs and constraints; the service keeps serving
instances warm across jobs, keeps service-level accounting, and adopts newly
registered agent implementations (re-profiling them) without any change to
submitted jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    admission_of,
)
from repro.agents.base import AgentImplementation
from repro.cluster.dynamics import ClusterDynamics, DynamicsConfig
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.execution import ServerPool
from repro.core.job import Job, JobResult
from repro.core.quality_control import QualityController
from repro.core.runtime import MurakkabRuntime
from repro.loadgen import ServiceLoadGenerator
from repro.policies.bundles import PolicyBundle, PolicyLike
from repro.profiling.profiler import Profiler
from repro.telemetry.metrics import StreamingAggregate, evict_oldest
from repro.warmstate import WarmStateCache, resolve_warm_cache

if TYPE_CHECKING:
    from repro.fabric import FabricTopology


@dataclass
class ServiceStats:
    """Service-level accounting across every job served.

    Aggregates (counts, totals, streaming min/mean/max) are always exact and
    O(1) in memory.  Per-job detail is kept in :attr:`per_job` up to
    :attr:`max_per_job_records` entries (``None`` = unbounded); beyond the
    cap the oldest record is evicted, so a long-lived service — or a
    10k-job trace replay — cannot grow without bound.
    """

    jobs_completed: int = 0
    total_energy_wh: float = 0.0
    total_cost: float = 0.0
    total_makespan_s: float = 0.0
    per_job: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Cap on retained per-job records (``None`` keeps every record).
    max_per_job_records: Optional[int] = None
    #: How many per-job records have been evicted to honour the cap.
    per_job_evicted: int = 0
    makespan_s: StreamingAggregate = field(default_factory=StreamingAggregate)
    energy_wh: StreamingAggregate = field(default_factory=StreamingAggregate)
    cost: StreamingAggregate = field(default_factory=StreamingAggregate)
    quality: StreamingAggregate = field(default_factory=StreamingAggregate)
    #: Per-shard provenance counters, filled by :meth:`merge` when shard
    #: stats are folded into one global view; empty on a plain service.
    shards: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Fabric data-movement accounting (all zero unless a costed
    #: :class:`~repro.fabric.FabricTopology` is attached to the runtime).
    transfer_events: int = 0
    transferred_bytes: int = 0
    cross_rack_bytes: int = 0
    transfer_s: float = 0.0
    transfer_wh: float = 0.0

    @property
    def mean_makespan_s(self) -> float:
        if not self.jobs_completed:
            return 0.0
        return self.total_makespan_s / self.jobs_completed

    def provenance(self) -> Dict[str, float]:
        """The compact per-shard accounting record :meth:`merge` stores."""
        record = {
            "jobs_completed": self.jobs_completed,
            "total_energy_wh": self.total_energy_wh,
            "total_cost": self.total_cost,
            "total_makespan_s": self.total_makespan_s,
        }
        if self.transfer_events:
            record["transfer_events"] = self.transfer_events
            record["transferred_bytes"] = self.transferred_bytes
            record["cross_rack_bytes"] = self.cross_rack_bytes
            record["transfer_s"] = self.transfer_s
            record["transfer_wh"] = self.transfer_wh
        return record

    def merge(self, other: "ServiceStats", shard: Optional[int] = None) -> "ServiceStats":
        """Fold another service's accounting into this one.

        Counts and totals add, streaming aggregates merge exactly, and
        per-job detail is inserted in ``other``'s order (evicting oldest
        beyond this record's cap).  Counter merging is associative and
        order-insensitive; float totals commute exactly but re-associate
        only up to IEEE-754 rounding, the standard parallel-reduction
        contract.  ``shard`` records ``other``'s provenance in
        :attr:`shards`.  Returns ``self`` so merges chain.
        """
        self.jobs_completed += other.jobs_completed
        self.total_energy_wh += other.total_energy_wh
        self.total_cost += other.total_cost
        self.total_makespan_s += other.total_makespan_s
        self.transfer_events += other.transfer_events
        self.transferred_bytes += other.transferred_bytes
        self.cross_rack_bytes += other.cross_rack_bytes
        self.transfer_s += other.transfer_s
        self.transfer_wh += other.transfer_wh
        self.makespan_s.merge(other.makespan_s)
        self.energy_wh.merge(other.energy_wh)
        self.cost.merge(other.cost)
        self.quality.merge(other.quality)
        for job_id, record in other.per_job.items():
            self.per_job[job_id] = dict(record)
        self.per_job_evicted += other.per_job_evicted
        self._evict()
        for shard_id, record in other.shards.items():
            self.shards[shard_id] = dict(record)
        if shard is not None:
            self.shards[shard] = other.provenance()
        return self

    @classmethod
    def merged(
        cls,
        stats: Sequence["ServiceStats"],
        shard_ids: Optional[Sequence[int]] = None,
    ) -> "ServiceStats":
        """One global record folding every record in ``stats``.

        The base is a deep copy of the first record, so merging a single
        record is the identity apart from :attr:`shards` provenance when
        ``shard_ids`` is given — the 1-shard differential guarantee.
        """
        import copy as _copy

        if not stats:
            raise ValueError("at least one ServiceStats is required")
        if shard_ids is not None and len(shard_ids) != len(stats):
            raise ValueError("shard_ids must parallel stats")
        base = _copy.deepcopy(stats[0])
        if shard_ids is not None:
            base.shards[shard_ids[0]] = stats[0].provenance()
        for position, other in enumerate(stats[1:], start=1):
            base.merge(
                other, shard=shard_ids[position] if shard_ids is not None else None
            )
        return base

    def limit_per_job_records(self, cap: Optional[int]) -> None:
        """Bound (or unbound) retained per-job detail from now on."""
        if cap is not None and cap < 0:
            raise ValueError("max_per_job_records must be non-negative or None")
        self.max_per_job_records = cap
        self._evict()

    def record(self, result: JobResult) -> None:
        self.jobs_completed += 1
        self.total_energy_wh += result.energy_wh
        self.total_cost += result.cost
        self.total_makespan_s += result.makespan_s
        if result.transfer_events:
            self.transfer_events += result.transfer_events
            self.transferred_bytes += result.transferred_bytes
            self.cross_rack_bytes += result.cross_rack_bytes
            self.transfer_s += result.transfer_s
            self.transfer_wh += result.transfer_wh
        self.makespan_s.add(result.makespan_s)
        self.energy_wh.add(result.energy_wh)
        self.cost.add(result.cost)
        self.quality.add(result.quality)
        self.per_job[result.job_id] = result.compact_summary()
        self._evict()

    def _evict(self) -> None:
        self.per_job_evicted += evict_oldest(self.per_job, self.max_per_job_records)


class AIWorkflowService:
    """A long-lived service endpoint over one Murakkab runtime."""

    def __init__(
        self,
        runtime: Optional[MurakkabRuntime] = None,
        keep_warm: bool = True,
        dynamics: "ClusterDynamics | DynamicsConfig | None" = None,
        policy: PolicyLike = None,
        warm_cache: "WarmStateCache | str | None" = None,
        admission: "AdmissionConfig | None" = None,
        fabric: "FabricTopology | str | None" = None,
    ) -> None:
        """``policy`` installs a control-plane bundle on the runtime via
        :meth:`MurakkabRuntime.set_policy` — including a runtime passed in by
        the caller, whose existing placement/scheduling policies are replaced
        wholesale (bundles are coherent sets; to customise one seam, build a
        :class:`~repro.policies.bundles.PolicyBundle` with the desired
        policy instead of pre-configuring the runtime).

        ``warm_cache`` attaches a persistent
        :class:`~repro.warmstate.WarmStateCache` (or a directory path for
        one): a fresh process restores the profiling sweep and planner
        decisions a previous process saved — the rolling-restart story —
        and served traces are recorded so an identical trace replays with
        zero probe simulations.  A stale or corrupted cache silently falls
        back to the cold path.

        ``admission`` installs an :class:`~repro.admission.AdmissionConfig`
        (or its dict form): interactive ``submit``/``submit_spec`` calls are
        rate-limited (raising
        :class:`~repro.admission.AdmissionRejected` when shed), and every
        ``submit_trace`` runs behind a fresh per-run controller with the
        full ladder — rate limiting, deadline feasibility,
        degrade-before-drop (see :mod:`repro.admission`).

        ``fabric`` attaches a cluster-interconnect model (a
        :class:`~repro.fabric.FabricTopology`, a registered profile name
        such as ``"congested"``, or its dict form): dependent stages placed
        on different nodes then pay per-payload transfer time on the
        topology's links, and the service accounts moved bytes, cross-rack
        bytes, and transfer energy in :class:`ServiceStats`.  The
        ``uniform`` profile (and any zero-cost topology) is byte-identical
        to running with no fabric at all."""
        self.warm_cache: Optional[WarmStateCache] = resolve_warm_cache(warm_cache)
        if runtime is None:
            runtime = self._build_runtime(self.warm_cache)
        self.runtime = runtime
        if self.warm_cache is not None:
            self._restore_plan_cache()
        if policy is not None:
            self.runtime.set_policy(policy)
        if fabric is not None:
            self.runtime.set_fabric(fabric)
        self.keep_warm = keep_warm
        self.stats = ServiceStats()
        self._profiler = Profiler()
        self._pool: Optional[ServerPool] = None
        if keep_warm:
            self._pool = ServerPool(self.runtime.cluster_manager, self.runtime.library)
        #: Installed cluster-dynamics schedule; ``None`` = frozen testbed.
        self.dynamics: Optional[ClusterDynamics] = None
        if dynamics is not None:
            self.attach_dynamics(dynamics)
        #: Installed admission bundle; ``None`` admits everything.
        self.admission: Optional[AdmissionConfig] = None
        #: Long-lived controller for the interactive submit path (trace
        #: runs build their own per-run controller for replay determinism).
        self._admission_controller: Optional[AdmissionController] = None
        if admission is not None:
            self.set_admission(admission)

    # ------------------------------------------------------------------ #
    # Warm-state cache (zero-cost restarts)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_runtime(cache: Optional[WarmStateCache]) -> MurakkabRuntime:
        """A runtime over the default library, warm-started when possible.

        With a cache hit the profile store is rebuilt from the recorded
        sweep (same profiles, same insertion order — so planner behaviour is
        byte-identical) and the profiling sweep never runs.  Any miss or
        malformed payload falls back to the cold construction path; a
        malformed one is counted invalid, not a hit.
        """
        if cache is None:
            return MurakkabRuntime()
        from repro.agents.library import default_library
        from repro.profiling.store import ProfileStore

        library = default_library()
        profiles = cache.load_profiles(library)
        if profiles is not None:
            master = ProfileStore()
            try:
                for profile in profiles:
                    master.add(profile)
            except Exception:
                master = ProfileStore()
            if len(master):
                # ``copy()`` starts the mutation version at 0, exactly like
                # the cold ``default_profile_store`` path.
                return MurakkabRuntime(library=library, profile_store=master.copy())
            cache.reject()
        runtime = MurakkabRuntime(library=library)
        cache.save_profiles(library, runtime.profile_store.all_profiles())
        return runtime

    def _restore_plan_cache(self) -> None:
        """Seed the planner's decision cache from the warm-state cache.

        Entries are self-validating (each key embeds the policy fingerprint,
        cluster-stats digest, and spec digest it was decided under), so a
        restored entry can only ever be served for an identical decision.
        The payload is rejected wholesale when it was saved against a
        different profile-store version, and counted invalid when its
        entries are malformed.
        """
        payload = self.warm_cache.load_plan_cache(self.runtime.library)
        if payload is None:
            return
        if payload.get("store_version") != self.runtime.profile_store.version:
            return
        planner = self.runtime.planner
        try:
            planner.import_plan_cache(payload.get("entries", []))
        except Exception:
            planner.invalidate_cache()
            self.warm_cache.reject()

    def save_warm_state(self) -> None:
        """Persist planner decisions to the warm cache (no-op without one).

        Called automatically at the end of every ``submit_trace`` and on
        :meth:`shutdown`; safe to call at any time.
        """
        cache = self.warm_cache
        if cache is None:
            return
        entries = self.runtime.planner.export_plan_cache()
        if entries:
            cache.save_plan_cache(
                self.runtime.library, self.runtime.profile_store.version, entries
            )

    @property
    def policy(self) -> Optional[PolicyBundle]:
        """The runtime's installed policy bundle (``None`` = stock behaviour)."""
        return self.runtime.policy

    def set_policy(self, policy: PolicyLike) -> PolicyBundle:
        """Switch the service's control-plane policy bundle.

        Takes effect for every subsequent ``submit``/``submit_trace``; plan
        caches and trace memos are keyed by the bundle fingerprint, so
        decisions cached under another policy are never replayed.
        """
        return self.runtime.set_policy(policy)

    @property
    def fabric(self) -> "Optional[FabricTopology]":
        """The runtime's attached interconnect model (``None`` = free moves)."""
        return self.runtime.fabric

    def set_fabric(self, fabric: "FabricTopology | str | None") -> "FabricTopology":
        """Attach (or replace) the cluster-interconnect model.

        Accepts a :class:`~repro.fabric.FabricTopology`, a registered
        profile name, or a topology dict; takes effect for every subsequent
        ``submit``/``submit_trace``.  Plan caches are keyed by the fabric
        fingerprint, so decisions cached under another topology are never
        replayed.
        """
        return self.runtime.set_fabric(fabric)

    def set_admission(
        self, admission: "AdmissionConfig | None"
    ) -> Optional[AdmissionConfig]:
        """Install (or clear, with ``None``) the admission bundle.

        Takes effect for every subsequent ``submit``/``submit_trace``.
        Accepts an :class:`~repro.admission.AdmissionConfig` or its dict
        form; returns the installed config.
        """
        self.admission = admission_of(admission)
        self._admission_controller = (
            AdmissionController(self.admission) if self.admission is not None else None
        )
        return self.admission

    def _admit_interactive(self, job: Job) -> None:
        """Rate-limit one interactive submission (no-op without admission).

        The interactive path has no steady-state makespan estimate, so the
        ladder reduces to token buckets plus the trivial deadline check;
        shed submissions raise :class:`~repro.admission.AdmissionRejected`.
        """
        controller = self._admission_controller
        if controller is None:
            return
        now = self.runtime.engine.now
        decision = controller.decide(
            tenant=job.description,
            priority=job.priority,
            arrival_at=now,
            deadline_s=job.deadline_s,
            backlog_until=now,
        )
        if not decision.admitted:
            raise AdmissionRejected(decision, job.job_id)

    def quality_controller(self) -> QualityController:
        """Quality controller bound to this service's profiles and policy."""
        return self.runtime.quality_controller()

    def attach_dynamics(
        self, dynamics: "ClusterDynamics | DynamicsConfig"
    ) -> ClusterDynamics:
        """Run this service's cluster under a disruption schedule.

        Spot windows, whole-server failures, and autoscaling commands fire
        as engine events during every subsequent ``submit``/``submit_trace``;
        the warm pool is watched so lost serving instances drop out of it.
        """
        dynamics = self.runtime.attach_dynamics(dynamics)
        if self._pool is not None:
            dynamics.watch_pool(self._pool)
        self.dynamics = dynamics
        return dynamics

    # ------------------------------------------------------------------ #
    # Job submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        description: str,
        inputs: Sequence[object] = (),
        tasks: Sequence[str] = (),
        constraints: Union[Constraint, ConstraintSet, None] = None,
        quality_target: float = 0.0,
        job_id: str = "",
    ) -> JobResult:
        """Submit a declarative job described entirely by its intent.

        Raises :class:`~repro.admission.AdmissionRejected` when an
        installed admission bundle sheds the submission.
        """
        job = Job(
            description=description,
            inputs=inputs,
            tasks=tasks,
            constraints=constraints,
            quality_target=quality_target,
            job_id=job_id,
        )
        self._admit_interactive(job)
        return self.submit_job(job)

    def submit_job(self, job: Job) -> JobResult:
        """Submit a pre-built :class:`Job`."""
        result = self.runtime.submit(job, server_pool=self._pool)
        self.stats.record(result)
        return result

    def submit_spec(
        self,
        spec,
        inputs: Optional[Sequence[object]] = None,
        job_id: str = "",
    ) -> JobResult:
        """Compile a declarative :class:`~repro.spec.ir.WorkflowSpec` and
        submit it (eagerly validated; raises
        :class:`~repro.spec.ir.SpecError` before anything executes, and
        :class:`~repro.admission.AdmissionRejected` when an installed
        admission bundle sheds the submission)."""
        from repro.spec.compiler import compile_spec

        job = compile_spec(spec, inputs=inputs, job_id=job_id)
        self._admit_interactive(job)
        return self.submit_job(job)

    def submit_trace(self, arrivals, **options):
        """Serve a whole arrival trace through the batched-admission path.

        ``arrivals`` is a sequence of
        :class:`~repro.workloads.arrival.JobArrival` (see
        ``repro.workloads.arrival`` for Poisson/uniform/bursty/diurnal
        generators).  Jobs are grouped by
        ``(workload, constraints, quality_target)`` so each group is planned
        once and simulated to steady state, after which completions are
        accounted incrementally on the shared engine instead of re-running
        the whole pipeline per job.  Returns a
        :class:`~repro.loadgen.TraceReport`.

        ``mode="multiplex"`` instead interleaves every arrival concurrently
        on the shared engine (the fidelity path), with jobs stamped from one
        compiled template per admission group and a steady-window detector
        that batch-replays repeating arrival windows
        (``multiplex_window=0`` disables it).  The admission ladder
        (``admission=...``) and the QoE ``collector`` work in both modes.

        See :class:`~repro.loadgen.ServiceLoadGenerator` for the options
        (``registry``, ``mode``, ``max_per_job_records``, ``policy`` — a
        bundle name or :class:`~repro.policies.bundles.PolicyBundle` to
        serve the trace under — ``dynamics``, which runs the trace under
        a spot-preemption/failure schedule and fills
        :attr:`~repro.loadgen.TraceReport.disruptions`, ``admission``,
        ``collector``, ``vectorized``, and ``multiplex_window``).
        """
        return ServiceLoadGenerator(self).run(arrivals, **options)

    # ------------------------------------------------------------------ #
    # Library evolution (transparent adoption of new models/tools)
    # ------------------------------------------------------------------ #
    def register_agent(self, implementation: AgentImplementation) -> None:
        """Make a new model/tool available to every subsequent job.

        The implementation is profiled immediately so the planner can select
        it; running jobs are unaffected, and no submitted job needs to change.
        """
        self.runtime.library.register(implementation)
        for profile in self._profiler.profile_implementation(implementation):
            self.runtime.profile_store.add(profile)
        if self.warm_cache is not None:
            # The library fingerprint changed: record the extended sweep so
            # a restart with the same library skips profiling again.
            self.warm_cache.save_profiles(
                self.runtime.library, self.runtime.profile_store.all_profiles()
            )

    def retire_agent(self, name: str) -> None:
        """Remove a deprecated model/tool from the library and its profiles."""
        self.runtime.library.unregister(name)
        self.runtime.profile_store.remove_agent(name)

    def available_agents(self) -> List[str]:
        return self.runtime.library.names()

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def warm_agents(self) -> List[str]:
        """Serving instances currently kept warm between jobs."""
        return self.runtime.cluster_manager.warm_agents()

    def shutdown(self) -> None:
        """Tear down warm serving instances and release all resources."""
        self.save_warm_state()
        if self._pool is not None:
            self._pool.teardown_all()
            if self.dynamics is not None:
                self.dynamics.unwatch_pool(self._pool)
            self._pool = ServerPool(self.runtime.cluster_manager, self.runtime.library)
            if self.dynamics is not None:
                self.dynamics.watch_pool(self._pool)
