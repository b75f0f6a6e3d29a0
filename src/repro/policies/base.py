"""The stable control-plane policy interfaces.

The paper's central claim is that a *declarative* orchestrator can keep
re-deciding the workflow -> model -> hardware mapping as conditions change
(§3.2).  Before this module, those decisions were hardwired across four
layers: configuration search in :mod:`repro.core.planner`, task->agent
mapping in :mod:`repro.core.mapper`, node placement in
:mod:`repro.cluster.allocator`, and quality adaptation in
:mod:`repro.core.quality_control`.  Every run therefore used one implicit
greedy policy.

These abstract base classes are the seams those layers now delegate
through.  A :class:`~repro.policies.bundles.PolicyBundle` groups one
implementation of each seam; the stock greedy behaviour lives in the
``default`` bundle and is byte-identical to the pre-refactor code path.

* :class:`PlacementPolicy` — *which node* hosts a resource request that
  already fits (consulted by the :class:`~repro.cluster.allocator.Allocator`).
* :class:`SchedulingPolicy` — *which profiled (implementation, hardware,
  mode) triple* serves an agent interface (consulted by the
  :class:`~repro.core.planner.ConfigurationPlanner`), and which library
  implementation backs a task when the planner expressed no preference
  (consulted by the :class:`~repro.core.mapper.TaskAgentMapper`).
* :class:`QualityAdaptationPolicy` — *which single-stage substitution* to
  apply when a plan misses its quality target (consulted by the
  :class:`~repro.core.quality_control.QualityController`).

Implementations must be deterministic and stateless with respect to job
identity: given equal inputs and an equal :class:`~repro.policies.context.PlanContext`
they must return equal decisions, which is what makes decisions cacheable
under the policy's :meth:`Policy.fingerprint`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # real imports would couple the interface layer to every
    # substrate module; the seams only need the names for type checking.
    from repro.agents.base import AgentImplementation, AgentInterface
    from repro.agents.profiles import ExecutionProfile
    from repro.cluster.allocator import Allocation, Allocator, ResourceRequest
    from repro.cluster.node import Node
    from repro.core.task import Task
    from repro.policies.context import PlanContext


class Policy(abc.ABC):
    """Common surface of every control-plane policy."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def fingerprint(self) -> str:
        """Stable identity used in decision caches and memo keys.

        Two policy instances with equal fingerprints must make equal
        decisions on equal inputs; parameterised policies must fold their
        parameters in.
        """
        return self.name


class PlacementPolicy(Policy):
    """Chooses a node among candidates that can fit the request."""

    @abc.abstractmethod
    def choose(
        self,
        request: "ResourceRequest",
        candidates: Sequence["Node"],
        owned: Sequence["Allocation"],
    ) -> Optional["Node"]:
        """Return the chosen node, or ``None`` to reject placement.

        ``owned`` is what :meth:`allocations_seen` returned: by default the
        allocations ``request.owner`` already holds, in allocation order.
        """

    def allocations_seen(
        self, allocator: "Allocator", request: "ResourceRequest"
    ) -> Sequence["Allocation"]:
        """The allocations :meth:`choose` is handed for ``request``.

        The allocator asks before every placement.  The default hands over
        only those ``request.owner`` holds, which is all that owner-affine
        placement reads and costs nothing like a list of every allocation
        in the cluster; a policy that reads other owners' allocations
        overrides this.
        """
        return allocator.allocations_for(request.owner)


class SchedulingPolicy(Policy):
    """Chooses profiled configurations and task implementations.

    Cacheability contract: the planner memoizes ``select_profile`` results
    keyed by ``(interface, constraint set, override, stats planning digest,
    policy fingerprint, dynamics version)``.  A policy may therefore
    condition on the candidates, the constraint set,
    ``ctx.stats_digest``-covered stats fields, and ``ctx.dynamics_version``;
    one that reads anything else from :class:`PlanContext` (e.g. utilisation
    fractions outside the digest) must run with the plan cache disabled
    (``ConfigurationPlanner(enable_plan_cache=False)``) or stale decisions
    will be replayed.
    """

    @abc.abstractmethod
    def select_profile(
        self,
        interface: "AgentInterface",
        acceptable: Sequence["ExecutionProfile"],
        ctx: "PlanContext",
    ) -> Optional["ExecutionProfile"]:
        """Pick one profile for ``interface`` from the acceptable candidates.

        ``acceptable`` has already been filtered to the job's quality floor
        and any explicit per-interface override; the policy owns feasibility
        weighting, ranking, and tie-breaking.  Return ``None`` to reject
        every candidate (the planner raises ``PlanningError``).
        """

    @abc.abstractmethod
    def rank(
        self,
        interface: "AgentInterface",
        candidates: Sequence["ExecutionProfile"],
        ctx: "PlanContext",
    ) -> List["ExecutionProfile"]:
        """All candidates ordered best-first under this policy (for reports)."""

    def choose_implementation(
        self,
        task: "Task",
        candidates: Sequence["AgentImplementation"],
    ) -> "AgentImplementation":
        """Pick the library implementation backing ``task`` when the planner
        expressed no preference.  ``candidates`` is non-empty and in library
        registration order; the stock behaviour takes the first."""
        return candidates[0]


class QualityAdaptationPolicy(Policy):
    """Chooses among single-stage upgrades that all meet the quality target."""

    @abc.abstractmethod
    def choose_upgrade(
        self,
        proposals: Sequence[object],
        quality_target: float,
    ) -> Optional[object]:
        """Pick one :class:`~repro.core.quality_control.UpgradeProposal` from
        ``proposals`` (each already projected to meet ``quality_target``), or
        ``None`` to decline upgrading.  ``proposals`` may be empty."""
