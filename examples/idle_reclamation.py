"""Idle reclamation: a warm pool on one node that yields its idle GPUs.

The paper's reclamation lever (§3.2) in runnable form.  Because the runtime
sees every job's DAG, the cluster manager knows which warm serving
instances still have work coming.  When a stage does not fit, idle
instances are torn down to make room.  Instances with no pending work in
any announced DAG go first, then the rest.

A keep-warm client on a single 8-GPU node submits every (workflow,
constraint, quality target) combination once.  The node cannot keep all of
those models warm at once, so each job reclaims what earlier jobs left
idle.  The script prints every deployment and eviction, and exits non-zero
if any submission fails.

Run with::

    python examples/idle_reclamation.py
"""

from __future__ import annotations

import itertools
import sys

from repro import MurakkabClient, MurakkabRuntime
from repro.cluster.allocator import MODEL_OWNER_PREFIX
from repro.cluster.cluster import paper_testbed
from repro.core.constraints import Constraint
from repro.loadgen import default_registry

WORKFLOWS = ("video-understanding", "newsfeed", "document-qa", "chain-of-thought")
CONSTRAINTS = (None, "min_latency", "min_energy", "min_cost")
QUALITY_TARGETS = (None, 0.9)


def main() -> int:
    runtime = MurakkabRuntime(cluster=paper_testbed(node_count=1))
    manager = runtime.cluster_manager
    print(f"=== idle reclamation on {runtime.cluster} ===")
    failures = 0
    deploys = evictions = 0
    # The manager's allocation log keeps its last EVENT_LOG_CAP events,
    # far more than these 32 jobs produce.
    seen = 0
    with MurakkabClient(runtime=runtime, registry=default_registry(), keep_warm=True) as client:
        combinations = itertools.product(WORKFLOWS, CONSTRAINTS, QUALITY_TARGETS)
        for index, (workflow, constraint, quality) in enumerate(combinations):
            label = f"{workflow}/{constraint or 'default'}/q={quality or '-'}"
            try:
                handle = client.submit(
                    workflow,
                    constraints=Constraint(constraint) if constraint else None,
                    quality_target=quality,
                )
                outcome = f"{handle.makespan_s:7.1f} s"
            except RuntimeError as error:
                failures += 1
                outcome = f"FAILED: {error}"
            events = manager.allocation_events[seen:]
            seen += len(events)
            deployed, evicted = [], []
            for event in events:
                owner = event.allocation.owner
                if owner.startswith(MODEL_OWNER_PREFIX):
                    model = owner[len(MODEL_OWNER_PREFIX):]
                    (deployed if event.kind == "allocate" else evicted).append(model)
            deploys += len(deployed)
            evictions += len(evicted)
            line = f"{index:2d} {label:<38} {outcome}  deployed {len(deployed):2d}"
            if evicted:
                line += f", evicted {len(evicted):2d} ({', '.join(sorted(set(evicted)))})"
            print(line)
        warm = ", ".join(client.service.warm_agents())
    print()
    print(f"deployments: {deploys}, evictions: {evictions}, failed jobs: {failures}")
    print(f"warm at the end: {warm}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
