"""Configuration-scheduling policies: which profiled triple serves a stage.

The planner hands a policy the *acceptable* profiles for one agent interface
(already filtered to the job's quality floor and any explicit override) plus
the shared :class:`~repro.policies.context.PlanContext`; the policy owns
feasibility weighting, ranking, warm-model preference, and tie-breaking.

:class:`DefaultSchedulingPolicy` reproduces the pre-refactor greedy search
byte for byte: rank by the job's primary constraint, break ties with the
secondary constraints, prefer already-warm models when nearly tied (§3.2
"resource-aware orchestration").  The alternative policies exercise the
seam: latency-first ignores the job's efficiency ranking entirely and takes
the fastest point, energy-first minimises joules subject to the same
constraints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.policies.base import SchedulingPolicy

if TYPE_CHECKING:
    from repro.agents.base import AgentInterface
    from repro.agents.profiles import ExecutionProfile
    from repro.cluster.telemetry_exchange import ResourceStatsMessage
    from repro.core.constraints import ConstraintSet
    from repro.policies.context import PlanContext


def fits_cluster(profile: "ExecutionProfile", stats: "ResourceStatsMessage") -> bool:
    """Whether some node could hold the profile's hardware shape if it were
    empty (the allocator places a deployment on one node)."""
    config = profile.config
    generation = config.gpu_generation.value if config.gpus else None
    return any(
        gpus >= config.gpus
        and cores >= config.cpu_cores
        and (generation is None or kind == generation)
        for kind, gpus, cores in stats.node_shapes
    )


class RankedSchedulingPolicy(SchedulingPolicy):
    """Template for policies that reduce selection to a total order.

    Subclasses define :meth:`sort_key`; selection filters to cluster-feasible
    candidates (when stats are available), takes the best-ranked profile, and
    optionally displaces it with a nearly-tied warm model when
    :attr:`warm_preference_margin` is set.
    """

    #: Profiles within this relative margin of the best objective value are
    #: "nearly tied" and may be displaced by a warm model; ``None`` disables
    #: the warm preference entirely.
    warm_preference_margin: Optional[float] = None

    def sort_key(self, profile: "ExecutionProfile", constraint_set: "ConstraintSet") -> Tuple:
        raise NotImplementedError

    def rank(
        self,
        interface: "AgentInterface",
        candidates: Sequence["ExecutionProfile"],
        ctx: "PlanContext",
    ) -> List["ExecutionProfile"]:
        return sorted(candidates, key=lambda p: self.sort_key(p, ctx.constraint_set))

    def select_profile(
        self,
        interface: "AgentInterface",
        acceptable: Sequence["ExecutionProfile"],
        ctx: "PlanContext",
    ) -> Optional["ExecutionProfile"]:
        stats = ctx.cluster_stats
        candidates = list(acceptable)
        if stats is not None:
            feasible = [p for p in candidates if fits_cluster(p, stats)]
            if feasible:
                candidates = feasible
        ranked = self.rank(interface, candidates, ctx)
        if not ranked:
            return None
        best = ranked[0]
        if stats is not None and self.warm_preference_margin is not None:
            best = self._prefer_warm(ranked, best, stats, ctx.constraint_set)
        return best

    def _prefer_warm(
        self,
        ranked: Sequence["ExecutionProfile"],
        best: "ExecutionProfile",
        stats: "ResourceStatsMessage",
        constraint_set: "ConstraintSet",
    ) -> "ExecutionProfile":
        """Resource-aware orchestration: prefer models already running when
        the efficiency penalty is small (§3.2)."""
        warm_agents = set(stats.per_model_gpus) | set(stats.per_model_cpu_cores)
        if not warm_agents or best.agent_name in warm_agents:
            return best
        best_value = best.objective_value(constraint_set.objective)
        threshold = best_value * (1.0 + self.warm_preference_margin)
        for profile in ranked:
            if profile.agent_name in warm_agents and (
                profile.objective_value(constraint_set.objective) <= threshold
            ):
                return profile
        return best


class DefaultSchedulingPolicy(RankedSchedulingPolicy):
    """The stock greedy hierarchy-of-objectives search (byte-identical to the
    pre-policy planner): primary constraint, then secondaries, then quality,
    latency, and stable name/config tie-breaks, with the 10% warm-model
    preference."""

    warm_preference_margin = 0.10

    def sort_key(self, profile, constraint_set):
        key = [profile.objective_value(constraint_set.objective)]
        for objective in constraint_set.secondary_objectives():
            key.append(profile.objective_value(objective))
        key.append(-profile.quality)
        key.append(profile.latency_s)
        key.append(profile.agent_name)
        key.append(profile.config.describe())
        return tuple(key)


class LatencyFirstSchedulingPolicy(RankedSchedulingPolicy):
    """Ignore the job's efficiency ranking; take the fastest Pareto point.

    Ranks purely by service latency (quality, then cost/energy break ties, so
    the chosen point is Pareto-optimal along the latency axis) and never
    trades speed for a warm model.
    """

    warm_preference_margin = None

    def sort_key(self, profile, constraint_set):
        return (
            profile.latency_s,
            -profile.quality,
            profile.cost,
            profile.energy_wh,
            profile.agent_name,
            profile.config.describe(),
        )


class EnergyFirstSchedulingPolicy(RankedSchedulingPolicy):
    """Minimise joules subject to the job's constraints (quality floor and
    cluster feasibility).  Exact-energy ties go to the configuration drawing
    the least power (fewest provisioned devices) — two shapes can burn the
    same joules per unit while one holds twice the hardware — then quality,
    latency, and cost break what remains."""

    warm_preference_margin = None

    def sort_key(self, profile, constraint_set):
        return (
            profile.energy_wh,
            profile.power_w,
            -profile.quality,
            profile.latency_s,
            profile.cost,
            profile.agent_name,
            profile.config.describe(),
        )
