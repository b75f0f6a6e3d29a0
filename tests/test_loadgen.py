"""Tests for the trace-driven serving path (``AIWorkflowService.submit_trace``).

Covers the acceptance bar for the batched-admission layer:

* a single-job trace is byte-identical to the classic per-job ``submit()``;
* grouped trace serving is semantically the serial submit loop (exact
  aggregate agreement) while being >=10x faster in wall-clock jobs/sec on a
  1,000-job Poisson trace;
* steady-state memoization re-converges when the warm pool or the agent
  library changes;
* service-level accounting stays bounded.
"""

import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.admission import AdmissionConfig
from repro.loadgen import (
    ServiceLoadGenerator,
    TraceReport,
    WorkloadRegistry,
    default_registry,
)
from repro.service import AIWorkflowService
from repro.workflows.newsfeed import newsfeed_job
from repro.workloads.arrival import JobArrival, poisson_arrivals, uniform_arrivals
from repro.workloads.posts import generate_posts


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _newsfeed_registry(posts):
    registry = WorkloadRegistry()
    registry.register("newsfeed", lambda job_id: newsfeed_job(posts=posts, job_id=job_id))
    return registry


# --------------------------------------------------------------------- #
# Byte-identity of the single-job path
# --------------------------------------------------------------------- #


def test_single_job_trace_is_byte_identical_to_submit(registry):
    direct_service = AIWorkflowService()
    direct = direct_service.submit_job(registry.build("video-understanding", "ident"))

    generator = ServiceLoadGenerator(AIWorkflowService(), registry)
    report = generator.run(
        [JobArrival(0.0, "video-understanding")],
        job_ids=lambda index, workload: "ident",
    )
    traced = generator.last_probe_result

    assert report.jobs == 1 and report.simulated_jobs == 1
    assert generator.service.stats.per_job["ident"] == direct_service.stats.per_job["ident"]
    # The trace path must run the standard pipeline: identical plan text,
    # identical execution trace interval-for-interval, identical accounting.
    assert traced.plan.describe() == direct.plan.describe()
    assert tuple(traced.trace) == tuple(direct.trace)
    assert [i.metadata for i in traced.trace] == [i.metadata for i in direct.trace]
    assert traced.summary() == direct.summary()
    assert traced.output == direct.output


# --------------------------------------------------------------------- #
# Exact agreement with the serial loop + the 10x differential bar
# --------------------------------------------------------------------- #


def test_grouped_trace_matches_serial_loop_exactly():
    posts = generate_posts()
    arrivals = uniform_arrivals(8, interval_s=1.0, workloads=("newsfeed",))

    loop_service = AIWorkflowService()
    for index in range(len(arrivals)):
        loop_service.submit_job(newsfeed_job(posts=posts, job_id=f"job-{index}"))

    trace_service = AIWorkflowService()
    report = trace_service.submit_trace(
        arrivals,
        registry=_newsfeed_registry(posts),
        job_ids=lambda index, workload: f"job-{index}",
    )

    assert report.jobs == 8
    assert report.simulated_jobs == 2 and report.replayed_jobs == 6
    assert trace_service.stats.jobs_completed == loop_service.stats.jobs_completed
    assert trace_service.stats.total_makespan_s == pytest.approx(
        loop_service.stats.total_makespan_s
    )
    assert trace_service.stats.total_energy_wh == pytest.approx(
        loop_service.stats.total_energy_wh
    )
    assert trace_service.stats.total_cost == pytest.approx(loop_service.stats.total_cost)
    for job_id, record in loop_service.stats.per_job.items():
        assert trace_service.stats.per_job[job_id] == pytest.approx(record)


def test_1k_job_trace_is_10x_faster_than_per_job_loop():
    posts = generate_posts()
    arrivals = poisson_arrivals(
        rate_per_s=2.0, horizon_s=500.0, workloads=("newsfeed",), seed=7
    )
    assert len(arrivals) >= 1000

    trace_service = AIWorkflowService()
    report = trace_service.submit_trace(arrivals, registry=_newsfeed_registry(posts))
    assert report.jobs == len(arrivals)
    assert report.replayed_jobs >= len(arrivals) - 4

    loop_service = AIWorkflowService()
    started = time.perf_counter()
    for index in range(len(arrivals)):
        loop_service.submit_job(newsfeed_job(posts=posts, job_id=f"loop-{index}"))
    loop_seconds = time.perf_counter() - started

    assert report.wall_seconds > 0
    speedup = loop_seconds / report.wall_seconds
    assert speedup >= 10.0, (
        f"submit_trace must be >=10x the per-job loop; got {speedup:.1f}x "
        f"({report.wall_seconds:.3f}s vs {loop_seconds:.3f}s)"
    )
    # Same work, same accounting: totals agree with the loop exactly.
    assert trace_service.stats.total_makespan_s == pytest.approx(
        loop_service.stats.total_makespan_s
    )
    assert trace_service.stats.total_cost == pytest.approx(loop_service.stats.total_cost)


# --------------------------------------------------------------------- #
# Grouping, ordering, and invalidation
# --------------------------------------------------------------------- #


def test_mixed_workloads_group_independently(registry):
    service = AIWorkflowService()
    arrivals = uniform_arrivals(10, 5.0, workloads=("newsfeed", "chain-of-thought"))
    report = service.submit_trace(arrivals, registry=registry)
    assert report.jobs == 10
    assert set(report.groups) == {"newsfeed", "chain-of-thought"}
    for counters in report.groups.values():
        assert counters["simulated"] >= 2
        assert counters["simulated"] + counters["replayed"] == 5
    # Completions happen in FIFO order on the shared engine: watermarks are
    # non-decreasing in admission order.
    engine = service.runtime.engine
    marks = [engine.watermark(f"trace-{i:05d}-{a.workload}") for i, a in enumerate(arrivals)]
    assert all(m is not None for m in marks)
    assert marks == sorted(marks)


def test_arrivals_are_admitted_in_time_order_regardless_of_input_order(registry):
    service = AIWorkflowService()
    arrivals = [
        JobArrival(50.0, "chain-of-thought"),
        JobArrival(0.0, "chain-of-thought"),
        JobArrival(25.0, "chain-of-thought"),
    ]
    report = service.submit_trace(arrivals, registry=registry)
    assert report.jobs == 3
    # Queue delay is measured against each job's own arrival time, so an
    # out-of-order input list must not produce negative delays.
    assert report.queue_delay_s.min >= 0.0


def test_registering_new_agent_forces_reconvergence(registry):
    from tests.test_service import TurboSTT

    service = AIWorkflowService()
    arrivals = uniform_arrivals(4, 1.0, workloads=("video-understanding",))
    first = service.submit_trace(arrivals, registry=registry)
    assert first.groups["video-understanding"]["replayed"] == 2

    service.register_agent(TurboSTT())
    second = service.submit_trace(arrivals, registry=registry)
    # The library changed, so the steady record is stale: the group re-probes
    # before replaying again, and the new model is adopted.
    assert second.groups["video-understanding"]["simulated"] >= 2
    mean_after = second.makespan_s.mean
    assert mean_after <= first.makespan_s.mean


def test_second_trace_on_warm_service_rebases_arrival_epoch(registry):
    """Trace timestamps are trace-relative: a second trace on a long-lived
    service must not report the first trace's duration as queue delay."""
    service = AIWorkflowService()
    arrivals = uniform_arrivals(4, 30.0, workloads=("chain-of-thought",))
    service.submit_trace(arrivals, registry=registry)
    engine_after_first = service.runtime.engine.now
    assert engine_after_first > 0

    second = service.submit_trace(
        arrivals, registry=registry, job_ids=lambda i, w: f"second-{i}"
    )
    # Arrivals are spaced wider than the steady makespan, so jobs queue
    # barely (only behind re-convergence probes), not behind the whole
    # first trace.
    assert second.queue_delay_s.max < engine_after_first
    assert second.queue_delay_s.min >= 0.0
    assert second.batch_start >= engine_after_first


def test_unknown_workload_raises(registry):
    service = AIWorkflowService()
    with pytest.raises(KeyError):
        service.submit_trace([JobArrival(0.0, "nope")], registry=registry)
    with pytest.raises(ValueError):
        service.submit_trace([], registry=registry)
    with pytest.raises(ValueError):
        service.submit_trace([JobArrival(0.0, "newsfeed")], registry=registry, mode="bogus")


# --------------------------------------------------------------------- #
# Multiplex mode
# --------------------------------------------------------------------- #


def test_multiplex_mode_serves_every_job_concurrently(registry):
    service = AIWorkflowService()
    arrivals = uniform_arrivals(4, 2.0, workloads=("newsfeed", "chain-of-thought"))
    report = service.submit_trace(arrivals, mode="multiplex", registry=registry)
    assert report.jobs == 4
    assert report.simulated_jobs == 4 and report.replayed_jobs == 0
    assert service.stats.jobs_completed == 4
    assert report.batch_makespan_s > 0
    # Multiplexing overlaps executions: the batch finishes sooner than the
    # serial sum of makespans.
    assert report.batch_makespan_s <= report.makespan_s.total


# --------------------------------------------------------------------- #
# Bounded service accounting
# --------------------------------------------------------------------- #


def test_service_stats_bounded_mode_keeps_aggregates_exact():
    posts = generate_posts()
    service = AIWorkflowService()
    report = service.submit_trace(
        uniform_arrivals(30, 1.0, workloads=("newsfeed",)),
        registry=_newsfeed_registry(posts),
        max_per_job_records=5,
    )
    stats = service.stats
    assert report.jobs == 30
    assert stats.jobs_completed == 30
    assert len(stats.per_job) == 5
    assert stats.per_job_evicted == 25
    assert stats.makespan_s.count == 30
    assert stats.total_makespan_s == pytest.approx(stats.makespan_s.total)
    # The retained records are the most recent five.
    assert set(stats.per_job) == {f"trace-{i:05d}-newsfeed" for i in range(25, 30)}


def test_trace_report_summary_fields(registry):
    service = AIWorkflowService()
    report = service.submit_trace(
        uniform_arrivals(3, 1.0, workloads=("chain-of-thought",)), registry=registry
    )
    summary = report.summary()
    assert summary["jobs"] == 3
    assert summary["mode"] == "grouped"
    assert summary["wall_jobs_per_second"] > 0
    assert report.jobs_per_second > 0
    assert report.batch_end >= report.batch_start


def test_load_generator_requires_known_mode(registry):
    generator = ServiceLoadGenerator(AIWorkflowService(), registry)
    with pytest.raises(ValueError):
        generator.run([JobArrival(0.0, "newsfeed")], mode="wat")


# --------------------------------------------------------------------- #
# Vectorized steady-state accounting: byte-identity with the reference path
# --------------------------------------------------------------------- #


def _accounting_snapshot(service, report):
    """Every observable the vectorized path must reproduce byte-for-byte."""
    stats = service.stats
    engine = service.runtime.engine
    return {
        "jobs": (report.jobs, report.simulated_jobs, report.replayed_jobs),
        "groups": report.groups,
        "makespan": report.makespan_s.summary(),
        "energy": report.energy_wh.summary(),
        "cost": report.cost.summary(),
        "quality": report.quality.summary(),
        "queue_delay": report.queue_delay_s.summary(),
        "throughput": (
            report.throughput.completed,
            report.throughput.first_start,
            report.throughput.last_finish,
        ),
        "job_summaries": tuple(report.job_summaries.items()),
        "stats_totals": (
            stats.jobs_completed,
            stats.total_makespan_s,
            stats.total_energy_wh,
            stats.total_cost,
            stats.per_job_evicted,
        ),
        "stats_aggregates": (
            stats.makespan_s.summary(),
            stats.energy_wh.summary(),
            stats.cost.summary(),
            stats.quality.summary(),
        ),
        "per_job": tuple(stats.per_job.items()),
        "watermarks": tuple(engine.watermarks.items()),
        "engine_now": engine.now,
        "transfers": tuple(
            (
                owner.transfer_events,
                owner.transferred_bytes,
                owner.cross_rack_bytes,
                owner.transfer_s,
                owner.transfer_wh,
            )
            for owner in (report, stats)
        ),
        "admission": (
            report.rejected_jobs,
            report.degraded_jobs,
            report.deferred_jobs,
            report.slo_violations,
            report.priority_classes,
            {key: agg.summary() for key, agg in report.priority_latency.items()},
            tuple(report.latency_s),
        ),
    }


#: Feature combinations the vectorized/reference differentials run under:
#: ``(service options, serving options)`` per case.  The admission ladder is
#: quality-only (no degraded planning objective).
DIFFERENTIAL_CASES = {
    "plain": ({}, {}),
    "admission": (
        {},
        {
            "admission": AdmissionConfig(
                rate_per_s=0.5,
                burst=3,
                max_defer_s=20,
                degrade=True,
                default_deadline_s=120,
            )
        },
    ),
    "congested": ({"fabric": "congested"}, {}),
}

#: ``(numpy_enabled, case)`` for every differential; the plain case keeps the
#: bare accounting-backend id.
DIFFERENTIAL_PARAMS = [
    pytest.param(
        numpy_enabled,
        case,
        id=("" if case == "plain" else f"{case}-")
        + ("numpy" if numpy_enabled else "pure-python"),
    )
    for case in DIFFERENTIAL_CASES
    for numpy_enabled in (True, False)
]


def _differential_reports(
    registry, numpy_enabled, monkeypatch, service_options=None, collectors=None, **options
):
    if not numpy_enabled:
        import repro.telemetry.metrics as metrics

        # Every batch takes the loop branch of the sequential sums.
        monkeypatch.setattr(metrics, "_NUMPY_MIN_BATCH", sys.maxsize)
    arrivals = poisson_arrivals(
        rate_per_s=1.0,
        horizon_s=120.0,
        workloads=("newsfeed", "chain-of-thought"),
        seed=5,
    )
    ref_collector, vec_collector = collectors or (None, None)
    reference_service = AIWorkflowService(**(service_options or {}))
    reference = reference_service.submit_trace(
        arrivals,
        registry=registry,
        vectorized=False,
        collector=ref_collector,
        **options,
    )
    vector_service = AIWorkflowService(**(service_options or {}))
    vectorized = vector_service.submit_trace(
        arrivals, registry=registry, collector=vec_collector, **options
    )
    return (reference_service, reference), (vector_service, vectorized)


@pytest.mark.parametrize("numpy_enabled, case", DIFFERENTIAL_PARAMS)
def test_vectorized_accounting_is_byte_identical(
    registry, monkeypatch, numpy_enabled, case
):
    service_options, options = DIFFERENTIAL_CASES[case]
    ref_records, vec_records = [], []
    (ref_service, reference), (vec_service, vectorized) = _differential_reports(
        registry,
        numpy_enabled,
        monkeypatch,
        service_options=service_options,
        collectors=(ref_records.append, vec_records.append),
        **options,
    )
    # The per-arrival reference never batches; the vectorized path must.
    assert reference.replay_runs == 0
    assert vectorized.replay_runs > 0
    assert vectorized.replayed_jobs > vectorized.simulated_jobs
    assert _accounting_snapshot(vec_service, vectorized) == _accounting_snapshot(
        ref_service, reference
    )
    # One QoE record per offered arrival, identical on both paths.
    assert vec_records == ref_records
    assert len(vec_records) == (
        vectorized.jobs + vectorized.rejected_jobs + vectorized.failed_jobs
    )


@pytest.mark.parametrize("numpy_enabled", [True, False], ids=["numpy", "pure-python"])
def test_vectorized_eviction_arithmetic_is_byte_identical(
    registry, monkeypatch, numpy_enabled
):
    # A tight per-job cap forces the bulk-eviction arithmetic (partial and
    # full-batch overflow) to agree with evict-per-insert exactly.
    (ref_service, reference), (vec_service, vectorized) = _differential_reports(
        registry, numpy_enabled, monkeypatch, max_per_job_records=7
    )
    assert len(vec_service.stats.per_job) == 7
    assert _accounting_snapshot(vec_service, vectorized) == _accounting_snapshot(
        ref_service, reference
    )


def test_vectorized_accounting_with_duplicate_job_ids(registry):
    # Colliding ids defeat the fresh-key fast path; the sequential fallback
    # must still match the reference byte-for-byte.
    arrivals = uniform_arrivals(12, 1.0, workloads=("newsfeed",))
    job_ids = lambda index, workload: f"dup-{index % 3}"  # noqa: E731

    ref_service = AIWorkflowService()
    reference = ref_service.submit_trace(
        arrivals, registry=registry, vectorized=False, job_ids=job_ids
    )
    vec_service = AIWorkflowService()
    vectorized = vec_service.submit_trace(arrivals, registry=registry, job_ids=job_ids)

    assert len(vec_service.stats.per_job) == 3
    assert _accounting_snapshot(vec_service, vectorized) == _accounting_snapshot(
        ref_service, reference
    )


# --------------------------------------------------------------------- #
# Caps crossed inside one replayed batch
# --------------------------------------------------------------------- #


#: Small stand-ins for the four caps column accounting builds tails for:
#: latency samples, engine watermarks, service per-job records and report
#: job summaries.  Each is above what the probes fill and below what the
#: first replayed batch adds.
CAPS = {"latency": 11, "watermarks": 17, "per_job": 13, "summaries": 9}


def _assert_plain_numbers(value):
    """No numpy scalar anywhere: every float is exactly a Python float."""
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_plain_numbers(key)
            _assert_plain_numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_plain_numbers(item)
    else:
        assert not isinstance(value, np.generic), f"numpy scalar {value!r}"
        if isinstance(value, float):
            assert type(value) is float


@pytest.fixture
def small_caps(monkeypatch):
    """Shrinks the four caps and records, per vectorized batch, whether each
    was crossed inside it (below before the batch, at the cap after)."""
    import repro.loadgen as loadgen
    from repro.sim.engine import SimulationEngine

    @dataclass
    class SmallCapReport(TraceReport):
        max_job_summaries: Optional[int] = CAPS["summaries"]
        max_latency_samples: Optional[int] = CAPS["latency"]

    monkeypatch.setattr(loadgen, "TraceReport", SmallCapReport)
    monkeypatch.setattr(SimulationEngine, "WATERMARK_CAP", CAPS["watermarks"])
    crossed = set()
    account_run = ServiceLoadGenerator._account_run

    def spy(generator, report, slots, columns):
        def sizes():
            return {
                "latency": len(report.latency_s),
                "watermarks": len(generator.service.runtime.engine.watermarks),
                "per_job": len(generator.service.stats.per_job),
                "summaries": len(report.job_summaries),
            }

        before = sizes()
        account_run(generator, report, slots, columns)
        after = sizes()
        rows = len(columns[0])
        crossed.update(
            name
            for name, cap in CAPS.items()
            if before[name] < cap == after[name] and before[name] + rows > cap
        )

    monkeypatch.setattr(ServiceLoadGenerator, "_account_run", spy)
    return crossed


def _serve_capped(registry, arrivals, mode, **options):
    service = AIWorkflowService(**options.pop("service_options", {}))
    report = service.submit_trace(
        arrivals,
        registry=registry,
        mode=mode,
        max_per_job_records=CAPS["per_job"],
        **options,
    )
    snapshot = _accounting_snapshot(service, report)
    _assert_plain_numbers(snapshot)
    _assert_plain_numbers(report.latency_s)
    service.shutdown()
    return report, snapshot


def _capped_arrivals(mode):
    if mode == "multiplex":
        from test_multiplex_fastpath import _burst_arrivals

        return _burst_arrivals()
    return poisson_arrivals(
        rate_per_s=1.0,
        horizon_s=120.0,
        workloads=("newsfeed", "chain-of-thought"),
        seed=5,
    )


@pytest.mark.parametrize("numpy_enabled", [True, False], ids=["numpy", "pure-python"])
@pytest.mark.parametrize("mode", ["grouped", "multiplex"])
def test_caps_crossed_inside_one_batch_are_byte_identical(
    registry, monkeypatch, small_caps, mode, numpy_enabled
):
    if not numpy_enabled:
        import repro.telemetry.metrics as metrics

        monkeypatch.setattr(metrics, "_NUMPY_MIN_BATCH", sys.maxsize)
    arrivals = _capped_arrivals(mode)
    reference, ref_snapshot = _serve_capped(registry, arrivals, mode, vectorized=False)
    assert not small_caps, "the reference path never batches"
    vectorized, vec_snapshot = _serve_capped(registry, arrivals, mode)
    assert small_caps == set(CAPS)
    assert vectorized.replay_runs >= 1 and reference.replay_runs == 0
    assert vec_snapshot == ref_snapshot


@pytest.mark.parametrize("numpy_enabled", [True, False], ids=["numpy", "pure-python"])
def test_caps_crossed_inside_a_warm_recording_match_the_cold_run(
    registry, monkeypatch, small_caps, tmp_path, numpy_enabled
):
    if not numpy_enabled:
        import repro.telemetry.metrics as metrics

        monkeypatch.setattr(metrics, "_NUMPY_MIN_BATCH", sys.maxsize)
    arrivals = _capped_arrivals("grouped")
    cold, cold_snapshot = _serve_capped(
        registry, arrivals, "grouped", service_options={"warm_cache": tmp_path}
    )
    small_caps.clear()
    warm, warm_snapshot = _serve_capped(
        registry, arrivals, "grouped", service_options={"warm_cache": tmp_path}
    )
    assert not cold.warm_trace and warm.warm_trace and warm.simulated_jobs == 0
    assert small_caps == set(CAPS)
    # Only the simulated/replayed split differs between the generations.
    for snapshot in (cold_snapshot, warm_snapshot):
        del snapshot["jobs"], snapshot["groups"]
    assert warm_snapshot == cold_snapshot
