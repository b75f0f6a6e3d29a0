#!/usr/bin/env python
"""Overload CI gauntlet: admission control under 3x offered load.

Drives one logical service well past capacity and asserts the overload
contract end to end:

1. **Capacity probe** — measure the steady per-job makespan of the gauntlet
   workload on a throwaway service; its inverse is the serving capacity in
   jobs/s.  Every threshold below is derived from this measurement, so the
   gauntlet is calibrated to the machine it runs on, not to magic numbers.
2. **Overload run** — offer 3x capacity with the admission ladder installed
   at exactly capacity.  The run must shed: nonzero rejected AND nonzero
   degraded jobs, with high-priority tenants still being served.
3. **SLO contract** — zero deadline violations among admitted jobs: the
   deadline-feasibility check must shed load *instead of* admitting jobs it
   cannot finish in time.
4. **Replay determinism** — the run is recorded through
   :mod:`repro.capture`; two independent replays (fresh services, fresh
   engines) must reproduce the capture byte-for-byte, checksum-equal.

Exit status is nonzero on any violated assertion — this is the contract the
``overload-gauntlet`` CI job enforces on every push, on every supported
Python version.

Usage::

    python scripts/overload_gauntlet.py                      # full gauntlet
    python scripts/overload_gauntlet.py --capture-out X.json # keep the capture
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.admission import AdmissionConfig
from repro.capture import (
    TraceCapture,
    capture_trace,
    diff_captures,
    replay_capture,
    replays_identically,
)
from repro.loadgen import WorkloadRegistry
from repro.service import AIWorkflowService
from repro.workflows.newsfeed import newsfeed_spec
from repro.workloads.arrival import JobArrival

#: Offered load as a multiple of measured capacity.
OVERLOAD_FACTOR = 3.0

#: Arrivals in the overload trace (cycling the three tenants below).
TRACE_JOBS = 90

_FAILURES: List[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    marker = "ok" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{marker}] {label}{suffix}")
    if not ok:
        _FAILURES.append(label)


def gauntlet_registry() -> WorkloadRegistry:
    """Three tenants of one workload family across all priority classes.

    Sharing one spec family keeps the capacity probe meaningful for every
    tenant; the priority overrides are what the admission ladder
    discriminates on.
    """
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    registry.register_spec(
        base.with_overrides(priority="high"), name="newsfeed-interactive"
    )
    registry.register_spec(base, name="newsfeed-batch")
    registry.register_spec(
        base.with_overrides(priority="low"), name="newsfeed-backfill"
    )
    return registry


def measure_capacity() -> dict:
    """Calibration pass on a throwaway service (the gauntlet run itself
    starts cold): per-family full and degraded steady makespans.

    The slowest full makespan sets capacity; both maxima become the
    admission ladder's conservative cost priors, so a workload whose cost
    has not been observed *in the overload run yet* can never be admitted
    into a deadline it would then blow."""
    from repro.core.constraints import Constraint
    from repro.spec.compiler import compile_spec

    service = AIWorkflowService()
    registry = gauntlet_registry()
    name = "newsfeed-batch"
    full = service.submit_job(registry.build(name, f"probe-{name}")).makespan_s
    spec = registry.spec(name).with_overrides(
        constraints=Constraint.MIN_LATENCY, quality_target=0.0
    )
    job = compile_spec(
        spec,
        inputs=registry.materialized_inputs(name),
        job_id=f"probe-{name}-degraded",
    )
    degraded = service.submit_job(job).makespan_s
    service.shutdown()
    return {"makespan_s": full, "degraded_makespan_s": degraded}


def overload_arrivals(makespan_s: float) -> List[JobArrival]:
    interval = makespan_s / OVERLOAD_FACTOR
    tenants = (
        "newsfeed-interactive",
        "newsfeed-batch",
        "newsfeed-backfill",
    )
    return [
        JobArrival(arrival_time=index * interval, workload=tenants[index % len(tenants)])
        for index in range(TRACE_JOBS)
    ]


def overload_config(calibration: dict) -> AdmissionConfig:
    """The admission ladder installed at exactly the measured capacity."""
    makespan = calibration["makespan_s"]
    return AdmissionConfig(
        rate_per_s=1.0 / makespan,
        burst=2.0,
        max_defer_s=2.0 * makespan,
        degrade=True,
        degraded_quality=0.0,
        degraded_constraint="min_latency",
        default_deadline_s=4.0 * makespan,
        estimate_prior_s=makespan,
        degraded_prior_s=calibration["degraded_makespan_s"],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capture-out",
        default=None,
        metavar="PATH",
        help="also write the gauntlet capture file to PATH (CI uploads it "
        "as a failure artifact)",
    )
    args = parser.parse_args()

    calibration = measure_capacity()
    makespan = calibration["makespan_s"]
    capacity = 1.0 / makespan
    print(
        f"capacity probe: makespan {makespan:.2f}s/job "
        f"(degraded {calibration['degraded_makespan_s']:.2f}s) -> "
        f"{capacity:.3f} jobs/s; offering {OVERLOAD_FACTOR:.0f}x"
    )

    config = overload_config(calibration)
    arrivals = overload_arrivals(makespan)

    service = AIWorkflowService()
    capture, report = capture_trace(
        service, arrivals, registry=gauntlet_registry(), admission=config
    )
    service.shutdown()
    if args.capture_out:
        capture.save(args.capture_out)
        print(f"capture written to {args.capture_out}")

    admitted = report.jobs
    print(
        f"overload run: {len(arrivals)} offered, {admitted} admitted, "
        f"{report.degraded_jobs} degraded, {report.deferred_jobs} deferred, "
        f"{report.rejected_jobs} rejected"
    )
    print("shedding contract:")
    check("overload sheds load", report.rejected_jobs > 0)
    check("quality degraded before dropping", report.degraded_jobs > 0)
    check("some jobs still admitted", admitted > 0)
    check(
        "sheds are counted distinctly",
        admitted + report.rejected_jobs == len(arrivals)
        and report.degraded_jobs + report.deferred_jobs <= admitted,
    )
    high = report.priority_classes.get("high", {})
    low = report.priority_classes.get("low", {})
    check(
        "high-priority tenant keeps being served",
        high.get("jobs", 0) > 0,
        f"high={high}",
    )
    check(
        "low class sheds at least as hard as high",
        low.get("rejected", 0) >= high.get("rejected", 0),
        f"low_rejected={low.get('rejected', 0)} high_rejected={high.get('rejected', 0)}",
    )

    print("SLO contract:")
    check(
        "zero deadline violations among admitted jobs",
        report.slo_violations == 0,
        f"slo_violations={report.slo_violations}",
    )
    missed = [
        entry.job_id
        for entry in capture.entries
        if entry.outcome not in ("reject", "failed") and entry.slo_met is False
    ]
    check("every admitted QoE entry met its deadline", not missed, f"missed={missed[:5]}")

    print("replay determinism (2 independent replays):")
    first, _ = replay_capture(capture)
    second, _ = replay_capture(capture)
    check(
        "replay #1 is byte-identical",
        replays_identically(capture, first),
        f"diff={diff_captures(capture, first)}",
    )
    check(
        "replay #2 is byte-identical",
        replays_identically(capture, second),
        f"diff={diff_captures(capture, second)}",
    )
    check(
        "replays agree with each other",
        replays_identically(first, second),
    )
    roundtrip = TraceCapture.from_json(capture.to_json())
    check(
        "capture file round-trips checksum-exact",
        replays_identically(capture, roundtrip),
    )

    if _FAILURES:
        print(f"overload gauntlet FAILED: {', '.join(_FAILURES)}")
        return 1
    print("overload gauntlet passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
