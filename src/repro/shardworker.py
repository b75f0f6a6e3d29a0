"""Shard worker: the process-side half of :class:`~repro.sharding.ShardedService`.

Each shard of a process-backed sharded service is one long-lived worker
process running this module's entry points through a single-worker executor
(so every dispatch for a shard lands here, in the same interpreter).  The
worker hosts a persistent :class:`~repro.service.AIWorkflowService` — its
engine, planner, profile store, and warm pool survive across dispatches, so
steady-state memoization and warm-cache state amortise exactly as they do
in-process.

Everything that crosses the boundary is plain serializable data:

* **in**: a config recipe (keep-warm flag, policy bundle *name*, shard-local
  warm-cache directory), workload specs as :class:`~repro.spec.ir.WorkflowSpec`
  JSON, and arrival columns (times, workload names, global trace indices);
* **out**: the shard's :class:`~repro.loadgen.TraceReport`, a
  :class:`~repro.service.ServiceStats` snapshot, and warm-cache counters —
  the parent folds these into the global view.

Spawn-safe: no module-level work happens at import beyond defining the
state dict, and workers rebuild workloads from spec JSON (spec input
materialization is deterministic, so a shard compiles byte-identical jobs
to the parent's registry).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

#: The worker process's persistent state: one service (plus the registry of
#: workloads it has been shipped) for the life of the process.
_STATE: Dict[str, object] = {
    "service": None,
    "service_key": None,
    "policy": None,
    "fabric": None,
    "registry": None,
    "registered": {},
}


def _configure(config: Dict[str, object], warm_cache: Optional[str]):
    """The worker's persistent service, (re)built only when the recipe changes.

    The service is keyed by ``(warm_cache, keep_warm)``; a policy change
    alone re-points the existing service (bundles install atomically and all
    caches are fingerprint-namespaced), preserving its warm profile store
    and steady-state memos.
    """
    from repro.service import AIWorkflowService

    key = (warm_cache, bool(config.get("keep_warm", True)))
    service = _STATE["service"]
    if service is None or _STATE["service_key"] != key:
        if service is not None:
            service.shutdown()
        service = AIWorkflowService(
            keep_warm=bool(config.get("keep_warm", True)),
            warm_cache=warm_cache,
        )
        _STATE["service"] = service
        _STATE["service_key"] = key
        _STATE["policy"] = None
        _STATE["fabric"] = None
        _STATE["registry"] = None
        _STATE["registered"] = {}
    policy = config.get("policy")
    if policy != _STATE["policy"]:
        if policy is not None:
            service.set_policy(policy)
        _STATE["policy"] = policy
    fabric = config.get("fabric")
    if fabric != _STATE["fabric"]:
        # Shipped in dict form; set_fabric(None) detaches, so a cleared
        # fabric re-points the service just like a policy change.
        service.set_fabric(fabric)
        _STATE["fabric"] = fabric
    return service


def _registry(specs: Dict[str, str]):
    """The worker's workload registry, extended with any newly shipped specs.

    Specs are tracked by content digest so a re-shipped identical spec is
    not re-registered (input materialization runs once per distinct spec),
    while a changed spec under the same name re-registers.
    """
    from repro.loadgen import WorkloadRegistry
    from repro.spec.ir import WorkflowSpec

    registry = _STATE["registry"]
    if registry is None:
        registry = WorkloadRegistry()
        _STATE["registry"] = registry
        _STATE["registered"] = {}
    registered: Dict[str, str] = _STATE["registered"]  # type: ignore[assignment]
    for name, text in specs.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if registered.get(name) == digest:
            continue
        registry.register_spec(WorkflowSpec.from_json(text), name=name)
        registered[name] = digest
    return registry


def _outcome(shard: int, service) -> Dict[str, object]:
    cache = service.warm_cache
    return {
        "shard": shard,
        "stats": service.stats,
        "cache": cache.counters() if cache is not None else None,
    }


def serve_trace(payload: Dict[str, object]) -> Dict[str, object]:
    """Serve one shard's sub-trace on the persistent worker service.

    ``payload['indices']`` carries each arrival's *global* trace index, and
    job ids are derived from it — so the shard's job ids (and therefore its
    report's job summaries) are exactly the ones an unsharded serving of
    the full trace would have produced for these arrivals.
    """
    from repro.loadgen import TraceJobIds
    from repro.workloads.arrival import JobArrival

    service = _configure(payload["config"], payload.get("warm_cache"))
    registry = _registry(payload["specs"])
    times: List[float] = payload["times"]
    workloads: List[str] = payload["workloads"]
    indices: List[int] = payload["indices"]
    arrivals = [
        JobArrival(arrival_time=time, workload=workload)
        for time, workload in zip(times, workloads)
    ]
    report = service.submit_trace(
        arrivals,
        registry=registry,
        job_ids=TraceJobIds(indices),
        **payload["options"],
    )
    outcome = _outcome(payload["shard"], service)
    outcome["report"] = report
    return outcome


def _slim_result(result):
    """The accounting/output core of a :class:`~repro.core.job.JobResult`.

    Plans, DAGs, and execution traces reference planner/engine internals
    that are heavy (and pointless) to pickle back; the parent documents
    that process-backed single-job results carry accounting only.
    """
    from dataclasses import replace

    return replace(result, trace=None, plan=None, graph=None, react_trace=None)


def serve_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one pre-built :class:`~repro.core.job.Job` on the worker service."""
    service = _configure(payload["config"], payload.get("warm_cache"))
    result = service.submit_job(payload["job"])
    outcome = _outcome(payload["shard"], service)
    outcome["result"] = _slim_result(result)
    return outcome


def shutdown_service(save_only: bool = False) -> Dict[str, object]:
    """Persist the worker's warm state; tear the service down unless
    ``save_only``.  Safe to call on a worker that never served anything."""
    service = _STATE["service"]
    outcome: Dict[str, object] = {"cache": None}
    if service is None:
        return outcome
    cache = service.warm_cache
    if save_only:
        service.save_warm_state()
    else:
        service.shutdown()
        _STATE["service"] = None
        _STATE["service_key"] = None
        _STATE["policy"] = None
        _STATE["registry"] = None
        _STATE["registered"] = {}
    if cache is not None:
        outcome["cache"] = cache.counters()
    return outcome
