"""Pinned schedule cases: four runs whose every scheduling decision is
fingerprinted by a golden file under ``tests/data/schedules/``.

Each case serves a fixed workload and returns ``{"checksum", "events_fired",
"allocate_calls"}``: the SHA-256 of its canonical output, the engine events
it fired, and how many times :meth:`ClusterManager.allocate` was called
(serving-instance deployments included).  A change that alters one event, one
allocation or one trace interval moves at least one of the three.

``tests/test_schedule_goldens.py`` compares every case with its golden file;
``scripts/update_schedule_goldens.py`` rewrites the files after an
intentional change of the simulated schedule.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Callable, Dict, List

from repro.capture import payload_checksum
from repro.cluster.manager import ClusterManager

#: The fidelity admission ladder: a budget of about half the offered rate,
#: deadlines, and degrade-before-drop.
FIDELITY_ADMISSION = dict(
    rate_per_s=0.08,
    burst=3.0,
    max_defer_s=20.0,
    degrade=True,
    degraded_constraint="min_latency",
    default_deadline_s=120.0,
)
WORKFLOWS = ("video-understanding", "newsfeed", "document-qa", "chain-of-thought")


class _CountingAllocations:
    """Count :meth:`ClusterManager.allocate` calls while the block runs."""

    def __enter__(self) -> "_CountingAllocations":
        self.calls = 0
        original = self._original = ClusterManager.allocate

        def allocate(manager, request):
            self.calls += 1
            return original(manager, request)

        ClusterManager.allocate = allocate
        return self

    def __exit__(self, *exc_info) -> None:
        ClusterManager.allocate = self._original


def _intervals(trace, job_id: str) -> List[list]:
    """A job's trace intervals; task ids lose the job id, which a
    process-wide counter assigns."""
    return [
        [
            interval.task_id.replace(job_id, "<job>", 1),
            interval.category,
            interval.start,
            interval.end,
            interval.node_id,
            list(interval.gpu_ids),
            interval.cpu_cores,
            interval.gpu_utilization,
            interval.cpu_utilization,
        ]
        for interval in trace
    ]


def multiplex_fidelity() -> Dict[str, object]:
    """About 60 Poisson arrivals of every workflow, served concurrently
    behind the admission ladder over the ``datacenter-3tier`` fabric."""
    from repro.admission import AdmissionConfig
    from repro.loadgen import default_registry
    from repro.service import AIWorkflowService
    from repro.workloads.arrival import poisson_arrivals

    arrivals = poisson_arrivals(
        rate_per_s=0.15, horizon_s=400.0, workloads=WORKFLOWS, seed=7
    )
    with _CountingAllocations() as allocations:
        service = AIWorkflowService(fabric="datacenter-3tier")
        try:
            report = service.submit_trace(
                arrivals,
                registry=default_registry(),
                mode="multiplex",
                admission=AdmissionConfig(**FIDELITY_ADMISSION),
            )
        finally:
            service.shutdown()
    return {
        "arrivals": len(arrivals),
        "checksum": payload_checksum(report.canonical_dict()),
        "events_fired": service.runtime.engine.events_fired,
        "allocate_calls": allocations.calls,
    }


def keep_warm_session() -> Dict[str, object]:
    """32 closed-loop calls on one warm-pool client: every (workflow,
    constraint, quality target) combination once, in a fixed shuffled order.
    Idle warm instances eventually hold every GPU, so later calls deploy by
    evicting them; a call that still failed would be pinned as ``failed``."""
    import random

    from repro.client import MurakkabClient
    from repro.core.constraints import Constraint
    from repro.loadgen import default_registry

    combinations = [
        (workflow, constraint, quality)
        for workflow in WORKFLOWS
        for constraint in (None, "min_latency", "min_energy", "min_cost")
        for quality in (None, 0.9)
    ]
    random.Random(4).shuffle(combinations)
    outputs: list = []
    with _CountingAllocations() as allocations:
        with MurakkabClient(registry=default_registry(), keep_warm=True) as client:
            for workflow, constraint, quality in combinations:
                try:
                    handle = client.submit(
                        workflow,
                        constraints=Constraint(constraint) if constraint else None,
                        quality_target=quality,
                    )
                except RuntimeError as error:
                    outputs.append(["failed", str(error)])
                    continue
                result = handle.result
                outputs.append(
                    [
                        result.compact_summary(),
                        {k: v for k, v in result.summary().items() if k != "job_id"},
                        repr(sorted(result.output.items())).replace(result.job_id, "<job>"),
                        _intervals(result.trace, result.job_id),
                    ]
                )
            events = client.service.runtime.engine.events_fired
    return {
        "calls": len(combinations),
        "failed": sum(1 for output in outputs if output[0] == "failed"),
        "checksum": payload_checksum(outputs),
        "events_fired": events,
        "allocate_calls": allocations.calls,
    }


def node_loss_dynamics() -> Dict[str, object]:
    """A multiplex newsfeed trace that loses its serving node mid-run: tasks
    are requeued, lanes redeploy on the surviving capacity, and dispatch
    retries while the cluster is short."""
    from repro.cluster.dynamics import DynamicsConfig, FailureModel, NodeFailure
    from repro.cluster.spot import SpotCapacityModel
    from repro.service import AIWorkflowService
    from repro.workloads.arrival import poisson_arrivals

    arrivals = poisson_arrivals(
        rate_per_s=0.25, horizon_s=120.0, workloads=("newsfeed", "chain-of-thought"), seed=3
    )
    config = DynamicsConfig(
        spot=SpotCapacityModel(horizon_s=120.0, seed=5),
        failures=FailureModel(
            failures=[NodeFailure(time=8.0, node_id="node0")], horizon_s=120.0
        ),
    )
    with _CountingAllocations() as allocations:
        service = AIWorkflowService(dynamics=config)
        try:
            report = service.submit_trace(arrivals, mode="multiplex")
        finally:
            service.shutdown()
    return {
        "arrivals": len(arrivals),
        "checksum": payload_checksum(report.canonical_dict()),
        "events_fired": service.runtime.engine.events_fired,
        "allocate_calls": allocations.calls,
    }


def _overload_gauntlet():
    """``scripts/overload_gauntlet.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "overload_gauntlet.py"
    spec = importlib.util.spec_from_file_location("overload_gauntlet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def overload_qoe() -> Dict[str, object]:
    """The overload gauntlet's tenants, trace and admission ladder, served
    once in grouped and once in multiplex mode with a QoE collector: both
    reports and every QoE record (rejected, deferred and degraded arrivals
    included) are pinned."""
    from repro.service import AIWorkflowService

    gauntlet = _overload_gauntlet()
    calibration = gauntlet.measure_capacity()
    config = gauntlet.overload_config(calibration)
    arrivals = gauntlet.overload_arrivals(calibration["makespan_s"])
    outputs: list = []
    events = 0
    with _CountingAllocations() as allocations:
        for mode in ("grouped", "multiplex"):
            records: list = []
            service = AIWorkflowService()
            try:
                report = service.submit_trace(
                    arrivals,
                    registry=gauntlet.gauntlet_registry(),
                    mode=mode,
                    admission=config,
                    collector=records.append,
                )
            finally:
                service.shutdown()
            events += service.runtime.engine.events_fired
            outputs.append([mode, report.canonical_dict(), records])
    return {
        "arrivals": len(arrivals),
        "checksum": payload_checksum(outputs),
        "events_fired": events,
        "allocate_calls": allocations.calls,
    }


CASES: Dict[str, Callable[[], Dict[str, object]]] = {
    "multiplex_fidelity": multiplex_fidelity,
    "keep_warm_session": keep_warm_session,
    "node_loss_dynamics": node_loss_dynamics,
    "overload_qoe": overload_qoe,
}
