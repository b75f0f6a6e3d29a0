"""Node-placement policies used by the allocator.

Placement only decides *which node* hosts a request that already fits.  The
workflow-aware policy implements the paper's observation that coupling
orchestration with cluster management enables better placement: it prefers
nodes where the requesting workflow (or model instance) already holds
resources, reducing fragmentation and cross-node traffic.  The spot-aware
policy adds the elastic-cluster lesson from PR 3: a long-lived serving
instance placed on a ``spot:*`` node is lost the moment the window closes,
so durable deployments should prefer durable capacity.

The abstract interface is :class:`repro.policies.base.PlacementPolicy`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.allocator import MODEL_OWNER_PREFIX, Allocation, ResourceRequest
from repro.cluster.node import Node
from repro.policies.base import PlacementPolicy


class FirstFitPolicy(PlacementPolicy):
    """Pick the first candidate in cluster order."""

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        owned: Sequence[Allocation],
    ) -> Optional[Node]:
        return candidates[0] if candidates else None


class BestFitPolicy(PlacementPolicy):
    """Pick the candidate with the least remaining capacity (pack tightly)."""

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        owned: Sequence[Allocation],
    ) -> Optional[Node]:
        if not candidates:
            return None
        if request.is_gpu_request:
            return min(candidates, key=lambda n: (n.free_gpu_count, n.free_cpu_cores))
        return min(candidates, key=lambda n: (n.free_cpu_cores, n.free_gpu_count))


class SpreadPolicy(PlacementPolicy):
    """Pick the candidate with the most remaining capacity (spread load)."""

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        owned: Sequence[Allocation],
    ) -> Optional[Node]:
        if not candidates:
            return None
        if request.is_gpu_request:
            return max(candidates, key=lambda n: (n.free_gpu_count, n.free_cpu_cores))
        return max(candidates, key=lambda n: (n.free_cpu_cores, n.free_gpu_count))


class WorkflowAwarePolicy(PlacementPolicy):
    """Prefer nodes where the same owner already holds allocations.

    Falls back to best-fit packing when the owner has no prior placements on
    any candidate node.  Reads only the owner's own allocations (the default
    :meth:`~repro.policies.base.PlacementPolicy.allocations_seen`).
    """

    def __init__(self) -> None:
        self._fallback = BestFitPolicy()

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        owned: Sequence[Allocation],
    ) -> Optional[Node]:
        if not candidates:
            return None
        if len(candidates) == 1:
            # Colocated or not, best-fit over one candidate picks it.
            return candidates[0]
        owner_nodes = {a.node_id for a in owned}
        colocated: List[Node] = [n for n in candidates if n.node_id in owner_nodes]
        if colocated:
            return self._fallback.choose(request, colocated, owned)
        return self._fallback.choose(request, candidates, owned)


class SpotAwarePlacementPolicy(PlacementPolicy):
    """Keep long-lived serving instances off preemptible ``spot:*`` nodes.

    Spot windows (``repro.cluster.dynamics``) add transient nodes whose ids
    carry the ``spot:`` prefix; when a window closes, everything on the node
    is reclaimed.  Short-lived task lanes can harvest that capacity cheaply,
    but a serving instance (owner ``model:*``) placed there is guaranteed to
    be lost, forcing a redeploy-and-replan cycle.  This policy steers
    ``model:*`` requests onto durable candidates whenever any exist — the
    same applies after a preemption, when the replanning hook re-places the
    lost instance — and otherwise behaves exactly like its base policy.
    """

    def __init__(self, base: Optional[PlacementPolicy] = None) -> None:
        self._base = base or WorkflowAwarePolicy()

    @property
    def name(self) -> str:
        return f"{type(self).__name__}({self._base.name})"

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        owned: Sequence[Allocation],
    ) -> Optional[Node]:
        if not candidates:
            return None
        if request.owner.startswith(MODEL_OWNER_PREFIX):
            durable = [n for n in candidates if not self._is_preemptible(n)]
            if durable:
                return self._base.choose(request, durable, owned)
        return self._base.choose(request, candidates, owned)

    def allocations_seen(self, allocator, request):
        return self._base.allocations_seen(allocator, request)

    @staticmethod
    def _is_preemptible(node: Node) -> bool:
        # Imported here: dynamics pulls in numpy and the whole elastic layer,
        # which placement must not require at import time.
        from repro.cluster.dynamics import SPOT_NODE_PREFIX

        return node.node_id.startswith(SPOT_NODE_PREFIX)


class LocalityAwarePlacementPolicy(PlacementPolicy):
    """Co-locate a workflow's stages on the cheapest fabric path.

    With a :class:`~repro.fabric.FabricTopology` attached (by
    ``MurakkabRuntime.set_fabric``), dependent stages placed in different
    racks pay per-payload transfer time on the inter-rack links.  This policy
    anchors each request to the nodes its workflow already occupies — falling
    back to *any* occupied node, since serving instances are owned by
    ``model:*`` rather than the workflow — and keeps only the candidates with
    the cheapest total fabric distance (``hop_cost``) to those anchors, then
    lets the base policy pick among the survivors.

    Without a fabric, or on a single-rack topology where every path is
    equally cheap, the filter keeps every candidate and the policy is
    behaviourally identical to its base — which is what keeps the
    ``uniform`` profile byte-identical to running with no fabric at all.
    Only with a multi-rack fabric does it read other owners' allocations
    (:meth:`allocations_seen` then hands it every active one); its base is
    always handed the owner's own.
    """

    def __init__(self, base: Optional[PlacementPolicy] = None) -> None:
        self._base = base or WorkflowAwarePolicy()
        self._fabric = None

    @property
    def name(self) -> str:
        return f"{type(self).__name__}({self._base.name})"

    def attach_fabric(self, fabric) -> None:
        """Install the topology this policy measures distances on (or
        ``None`` to detach).  Called by the runtime, not by users."""
        self._fabric = fabric

    def _spans_racks(self) -> bool:
        fabric = self._fabric
        return fabric is not None and len(fabric.racks) > 1

    def allocations_seen(self, allocator, request):
        if self._spans_racks():
            return allocator.active_allocations()
        return self._base.allocations_seen(allocator, request)

    def choose(
        self,
        request: ResourceRequest,
        candidates: Sequence[Node],
        seen: Sequence[Allocation],
    ) -> Optional[Node]:
        if not candidates:
            return None
        if not self._spans_racks():
            return self._base.choose(request, candidates, seen)
        # Handed every active allocation (see allocations_seen); the base
        # is handed only the owner's own.
        owned = [a for a in seen if a.owner == request.owner]
        anchors = {a.node_id for a in owned}
        if not anchors:
            # Serving instances are owned by ``model:<group>`` while task
            # lanes are owned by the workflow, so a chatty stage pair never
            # shares an owner.  Anchor to every occupied node instead: the
            # workflow's other stages are there, and pulling new capacity
            # toward the occupied racks is what avoids the cross-rack hop.
            anchors = {a.node_id for a in seen}
        if not anchors:
            return self._base.choose(request, candidates, owned)
        fabric = self._fabric
        costs = {
            node.node_id: sum(fabric.hop_cost(anchor, node.node_id) for anchor in sorted(anchors))
            for node in candidates
        }
        cheapest = min(costs.values())
        near = [n for n in candidates if costs[n.node_id] == cheapest]
        return self._base.choose(request, near, owned)
