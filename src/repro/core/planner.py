"""Configuration planning: choosing models, hardware, and execution modes.

This is the paper's §3.2 "Model/Tool Selection" + "Resource Allocation" +
"Execution Paths" combined into one profile-driven search (§3.3 notes the
full space explodes, so Murakkab prunes it greedily):

for every agent interface the task graph needs, collect the profiled
(implementation, hardware, mode) triples that meet the quality floor and
any explicit override, then delegate the actual choice to the installed
:class:`~repro.policies.base.SchedulingPolicy` through the shared
:class:`~repro.policies.context.PlanContext`.  The stock
:class:`~repro.policies.scheduling.DefaultSchedulingPolicy` reproduces the
original greedy hierarchy-of-objectives search (rank by primary constraint,
prefer warm models when nearly tied, break ties with the secondaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import calibration
from repro.agents.base import AgentInterface, ExecutionMode, HardwareConfig
from repro.agents.library import AgentLibrary
from repro.agents.profiles import ExecutionProfile
from repro.cluster.telemetry_exchange import ResourceStatsMessage
from repro.core.constraints import ConstraintSet
from repro.core.dag import TaskGraph
from repro.policies.base import SchedulingPolicy
from repro.policies.context import PlanContext
from repro.policies.scheduling import DefaultSchedulingPolicy, fits_cluster
from repro.profiling.store import ProfileStore


class PlanningError(RuntimeError):
    """Raised when no feasible configuration exists for an interface."""


@dataclass(frozen=True)
class PlannerOverride:
    """Pin parts of the configuration for one interface (used by experiments
    that sweep a single lever, e.g. the Table-2 STT configurations)."""

    agent_name: Optional[str] = None
    config: Optional[HardwareConfig] = None
    mode: Optional[ExecutionMode] = None
    max_concurrency: Optional[int] = None

    def matches(self, profile: ExecutionProfile) -> bool:
        if self.agent_name is not None and profile.agent_name != self.agent_name:
            return False
        if self.config is not None and profile.config != self.config:
            return False
        if self.mode is not None and profile.mode != self.mode:
            return False
        return True


@dataclass(frozen=True)
class PlanAssignment:
    """The chosen configuration for one agent interface."""

    interface: AgentInterface
    agent_name: str
    config: HardwareConfig
    mode: ExecutionMode
    profile: ExecutionProfile
    #: How many tasks of this interface may run concurrently under this
    #: assignment (1 for a single serving instance; >1 for CPU task lanes).
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")

    @property
    def uses_gpu(self) -> bool:
        return self.config.gpus > 0

    def describe(self) -> str:
        return (
            f"{self.interface.value}: {self.agent_name} on {self.config.describe()} "
            f"[{self.mode.describe()}] x{self.max_concurrency}"
        )


@dataclass
class ExecutionPlan:
    """Per-interface assignments for one workflow execution."""

    constraint_set: ConstraintSet
    assignments: Dict[AgentInterface, List[PlanAssignment]] = field(default_factory=dict)

    def add(self, assignment: PlanAssignment) -> None:
        self.assignments.setdefault(assignment.interface, []).append(assignment)

    def assignments_for(self, interface: AgentInterface) -> List[PlanAssignment]:
        try:
            return self.assignments[interface]
        except KeyError:
            raise KeyError(f"plan has no assignment for {interface.value!r}") from None

    def primary_assignment(self, interface: AgentInterface) -> PlanAssignment:
        return self.assignments_for(interface)[0]

    def chosen_agents(self) -> Dict[AgentInterface, str]:
        return {
            interface: assignments[0].agent_name
            for interface, assignments in self.assignments.items()
        }

    def gpu_assignments(self) -> List[PlanAssignment]:
        """Assignments that require a long-lived GPU serving instance."""
        return [
            assignment
            for assignments in self.assignments.values()
            for assignment in assignments
            if assignment.uses_gpu
        ]

    def stage_qualities(self) -> Dict[str, float]:
        return {
            interface.value: max(a.profile.quality for a in assignments)
            for interface, assignments in self.assignments.items()
        }

    def describe(self) -> str:
        lines = [f"ExecutionPlan ({self.constraint_set.describe()})"]
        for assignments in self.assignments.values():
            for assignment in assignments:
                lines.append(f"  {assignment.describe()}")
        return "\n".join(lines)


class ConfigurationPlanner:
    """Profile-driven configuration search behind a pluggable policy.

    Repeated submissions of similar workflows re-plan the same interfaces
    under the same constraints against equivalent cluster snapshots, so the
    planner memoizes per-interface assignments keyed by
    ``(interface, constraint set, override, stats digest, policy
    fingerprint, workflow-spec digest)``.  The policy fingerprint in the key is what lets one
    long-lived service switch bundles without ever replaying another
    policy's cached decisions.  The cache is invalidated whenever the
    profile store changes (profile added, agent retired) via the store's
    mutation :attr:`~ProfileStore.version`, and can be dropped explicitly
    with :meth:`invalidate_cache`.

    A planner over an unmodified copy of a memoized master store
    (``default_profile_store``) uses that master's decision cache, shared by
    every such planner in the process: each key embeds everything a decision
    depends on, and the stores hold equal profiles.  Any other store gets a
    private cache.  Invalidation detaches a planner to a new private cache;
    it never clears the shared one.
    """

    #: Upper bound on memoized assignments (FIFO eviction beyond this).
    PLAN_CACHE_MAX = 4096

    def __init__(
        self,
        profile_store: ProfileStore,
        library: AgentLibrary,
        max_cpu_cores_per_agent: int = calibration.STT_CPU_TOTAL_CORES,
        enable_plan_cache: bool = True,
        scheduling_policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        if max_cpu_cores_per_agent <= 0:
            raise ValueError("max_cpu_cores_per_agent must be positive")
        self.profile_store = profile_store
        self.library = library
        self.max_cpu_cores_per_agent = max_cpu_cores_per_agent
        self.enable_plan_cache = enable_plan_cache
        #: The scheduling policy every per-interface decision goes through;
        #: reassigned by ``MurakkabRuntime.set_policy`` when a bundle is
        #: installed (cached decisions stay keyed to the old fingerprint).
        self.scheduling_policy = scheduling_policy or DefaultSchedulingPolicy()
        #: Optional provider of the cluster-dynamics disruption version,
        #: surfaced to policies through :class:`PlanContext` (installed by
        #: ``MurakkabRuntime.attach_dynamics``).
        self.dynamics_version_source: Optional[Callable[[], int]] = None
        #: Whether an attached dynamics schedule may add nodes (spot windows
        #: or autoscaling; set by ``MurakkabRuntime.attach_dynamics``).  On a
        #: cluster that cannot grow, a decision no node could hold raises
        #: :class:`PlanningError` (see :meth:`_check_fits`).
        self.capacity_can_grow = False
        #: Attached cluster interconnect model (set by
        #: ``MurakkabRuntime.set_fabric``); surfaced to policies through
        #: :class:`PlanContext` and folded into the decision-cache key.
        self.fabric = None
        shared = profile_store.shared_decisions()
        self._plan_cache: Dict[tuple, PlanAssignment] = {} if shared is None else shared
        self._plan_cache_store_version = profile_store.version
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        # The installed policy's fingerprint, recomputed only when the policy
        # object is swapped (it is read on every cache lookup).
        self._fingerprint_of: Optional[SchedulingPolicy] = None
        self._policy_fingerprint = ""

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        graph: TaskGraph,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage] = None,
        overrides: Optional[Dict[AgentInterface, PlannerOverride]] = None,
        spec_digest: str = "",
    ) -> ExecutionPlan:
        """Choose one configuration per interface appearing in ``graph``.

        ``spec_digest`` is the submitting job's workflow-spec digest (empty
        for hand-built jobs); it namespaces the memoized decisions so two
        specs can never replay each other's cached choices.
        """
        overrides = overrides or {}
        plan = ExecutionPlan(constraint_set=constraint_set)
        stats_digest = cluster_stats.planning_digest() if cluster_stats is not None else None
        for interface in graph.interfaces():
            override = overrides.get(interface)
            assignment = self._cached_assignment(
                interface, constraint_set, cluster_stats, stats_digest, override,
                spec_digest,
            )
            self._check_fits(assignment, constraint_set, cluster_stats)
            plan.add(assignment)
        return plan

    def plan_interface(
        self,
        interface: AgentInterface,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage] = None,
        override: Optional[PlannerOverride] = None,
        spec_digest: str = "",
    ) -> PlanAssignment:
        """Choose a configuration for one interface in isolation.

        This is the replanning entry point: when cluster dynamics (spot
        preemption, server failure) revoke a workflow's serving instance and
        the planned configuration no longer fits the shrunken cluster, the
        executor asks for a fresh assignment against *current* stats without
        re-decomposing the job.
        """
        stats_digest = (
            cluster_stats.planning_digest() if cluster_stats is not None else None
        )
        assignment = self._cached_assignment(
            interface, constraint_set, cluster_stats, stats_digest, override, spec_digest
        )
        self._check_fits(assignment, constraint_set, cluster_stats)
        return assignment

    def _check_fits(
        self,
        assignment: PlanAssignment,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage],
    ) -> None:
        """Refuse a decision no node of the cluster could hold.

        A policy ranks every acceptable profile when none fits a node shape,
        so a job would otherwise fail only when it deploys.  That fallback
        stays in force while :attr:`capacity_can_grow` (a dynamics schedule
        with spot windows or autoscaling may add a node that fits); on a
        fixed cluster the job is refused here, at planning time.
        """
        if (
            cluster_stats is None
            or not cluster_stats.node_shapes
            or self.capacity_can_grow
            or fits_cluster(assignment.profile, cluster_stats)
        ):
            return
        kind, gpus, cores = max(
            cluster_stats.node_shapes, key=lambda shape: (shape[1], shape[2])
        )
        raise PlanningError(
            f"no configuration for {assignment.interface.value!r} that meets quality "
            f"floor {constraint_set.quality_floor:.2f} fits any node: the largest "
            f"node has {gpus} {kind} GPUs and {cores} CPU cores"
        )

    def invalidate_cache(self) -> None:
        """Drop memoized assignments (e.g. after out-of-band store edits).

        The planner moves to a new private cache, so a shared one stays
        intact for the other planners using it.
        """
        self._plan_cache = {}
        self._plan_cache_store_version = self.profile_store.version

    def export_plan_cache(self) -> List[tuple]:
        """Memoized ``(key, assignment)`` pairs, insertion-ordered.

        The persistence surface for the warm-state cache: keys are
        self-validating (each embeds the constraint set, cluster-stats
        digest, policy fingerprint, and spec digest it was decided under),
        so an exported entry can be re-imported into any planner over the
        same profile store and only ever hit for an identical decision.
        A planner on a shared cache exports every shared entry, including
        those other runtimes decided: all of them are valid over the same
        store.
        """
        return list(self._plan_cache.items())

    def import_plan_cache(self, entries) -> int:
        """Seed the decision cache from :meth:`export_plan_cache` output.

        Entries beyond :attr:`PLAN_CACHE_MAX` or with malformed keys are
        skipped.  Returns how many entries were imported.
        """
        imported = 0
        for entry in entries:
            if len(self._plan_cache) >= self.PLAN_CACHE_MAX:
                break
            key, assignment = entry
            if not isinstance(key, tuple):
                continue
            self._plan_cache[key] = assignment
            imported += 1
        if imported:
            self._plan_cache_store_version = self.profile_store.version
        return imported

    @property
    def plan_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters for benchmarks and regression tests."""
        return {
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "size": len(self._plan_cache),
        }

    def _cached_assignment(
        self,
        interface: AgentInterface,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage],
        stats_digest: Optional[tuple],
        override: Optional[PlannerOverride],
        spec_digest: str = "",
    ) -> PlanAssignment:
        if not self.enable_plan_cache:
            profile = self._select_profile(
                interface, constraint_set, cluster_stats, override, spec_digest
            )
            return self._assignment_from_profile(interface, profile, override)
        if self._plan_cache_store_version != self.profile_store.version:
            self.invalidate_cache()
        if self._fingerprint_of is not self.scheduling_policy:
            self._fingerprint_of = self.scheduling_policy
            self._policy_fingerprint = self.scheduling_policy.fingerprint()
        # max_cpu_cores_per_agent is a public attribute callers mutate after
        # construction (it shapes assignment concurrency), so it must be
        # part of the key rather than assumed constant.  The disruption-log
        # version is in the key because PlanContext hands it to the policy:
        # a policy conditioning on cluster volatility must be re-consulted
        # after every disruption, even one that restores an identical stats
        # digest.  (Policies reading PlanContext fields outside the planning
        # digest and the dynamics version must disable the plan cache.)
        # The spec digest namespaces entries per submitting workflow spec:
        # hand-built jobs (digest "") share entries exactly as before, while
        # spec-compiled jobs can never replay a decision cached for a
        # different spec (e.g. under a spec-conditioned policy).
        cache_key = (
            interface,
            constraint_set,
            stats_digest,
            override,
            self.max_cpu_cores_per_agent,
            self._policy_fingerprint,
            self._dynamics_version(),
            spec_digest,
            self.fabric.fingerprint() if self.fabric is not None else "",
        )
        assignment = self._plan_cache.get(cache_key)
        if assignment is not None:
            self._plan_cache_hits += 1
            return assignment
        self._plan_cache_misses += 1
        profile = self._select_profile(
            interface, constraint_set, cluster_stats, override, spec_digest
        )
        assignment = self._assignment_from_profile(interface, profile, override)
        if len(self._plan_cache) >= self.PLAN_CACHE_MAX:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[cache_key] = assignment
        return assignment

    def rank_candidates(
        self,
        interface: AgentInterface,
        constraint_set: ConstraintSet,
    ) -> List[ExecutionProfile]:
        """All acceptable profiles for an interface, best-first (for reports)."""
        candidates = [
            p
            for p in self.profile_store.profiles_for(interface)
            if p.quality >= constraint_set.quality_floor
        ]
        return self.scheduling_policy.rank(
            interface, candidates, self._plan_context(constraint_set, None)
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dynamics_version(self) -> int:
        if self.dynamics_version_source is not None:
            return self.dynamics_version_source()
        return 0

    def _plan_context(
        self,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage],
        spec_digest: str = "",
    ) -> PlanContext:
        return PlanContext(
            constraint_set=constraint_set,
            cluster_stats=cluster_stats,
            profile_store=self.profile_store,
            dynamics_version=self._dynamics_version(),
            spec_digest=spec_digest,
            fabric=self.fabric,
        )

    def _select_profile(
        self,
        interface: AgentInterface,
        constraint_set: ConstraintSet,
        cluster_stats: Optional[ResourceStatsMessage],
        override: Optional[PlannerOverride],
        spec_digest: str = "",
    ) -> ExecutionProfile:
        candidates = self.profile_store.profiles_for(interface)
        if not candidates:
            raise PlanningError(f"no profiled implementation for {interface.value!r}")
        if override is not None:
            candidates = [p for p in candidates if override.matches(p)]
            if not candidates:
                raise PlanningError(
                    f"override for {interface.value!r} matches no profiled configuration"
                )
        acceptable = [p for p in candidates if p.quality >= constraint_set.quality_floor]
        if not acceptable:
            raise PlanningError(
                f"no configuration for {interface.value!r} meets quality floor "
                f"{constraint_set.quality_floor:.2f} "
                f"(best available: {max(p.quality for p in candidates):.2f})"
            )
        chosen = self.scheduling_policy.select_profile(
            interface,
            acceptable,
            self._plan_context(constraint_set, cluster_stats, spec_digest),
        )
        if chosen is None:
            raise PlanningError(
                f"policy {self.scheduling_policy.name!r} rejected every acceptable "
                f"configuration for {interface.value!r}"
            )
        return chosen

    def _assignment_from_profile(
        self,
        interface: AgentInterface,
        profile: ExecutionProfile,
        override: Optional[PlannerOverride],
    ) -> PlanAssignment:
        config = profile.config
        if override is not None and override.max_concurrency is not None:
            max_concurrency = override.max_concurrency
        elif config.is_cpu_only:
            # CPU tools run as per-task lanes carved out of a bounded core
            # budget (the paper's "64 CPU cores" Speech-to-Text deployment).
            max_concurrency = max(1, self.max_cpu_cores_per_agent // config.cpu_cores)
        else:
            # A GPU (or hybrid) configuration is a single serving instance;
            # its requests serialise on the instance.
            max_concurrency = 1
        return PlanAssignment(
            interface=interface,
            agent_name=profile.agent_name,
            config=config,
            mode=profile.mode,
            profile=profile,
            max_concurrency=max_concurrency,
        )
