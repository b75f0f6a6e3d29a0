"""SLO admission control: the ladder's outcomes, priority fairness under
overload, interactive rejection, and exact merge of the shed counters."""

from __future__ import annotations

import pytest

from repro.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    TokenBucket,
    admission_of,
)
from repro.loadgen import DEGRADED_SUFFIX, TraceReport, WorkloadRegistry
from repro.service import AIWorkflowService
from repro.sharding import ShardedService
from repro.workflows.newsfeed import newsfeed_spec
from repro.workloads.arrival import JobArrival

# --------------------------------------------------------------------------- #
# Config validation and serialization
# --------------------------------------------------------------------------- #


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        AdmissionConfig(rate_per_s=0.0)
    with pytest.raises(ValueError):
        AdmissionConfig(burst=-1.0)
    with pytest.raises(ValueError):
        AdmissionConfig(max_defer_s=-0.1)
    with pytest.raises(ValueError):
        AdmissionConfig(degraded_quality=1.5)
    with pytest.raises(ValueError):
        AdmissionConfig(default_deadline_s=0.0)
    with pytest.raises(ValueError):
        AdmissionConfig(estimate_prior_s=-2.0)
    with pytest.raises(ValueError):
        AdmissionConfig(degraded_constraint="max_speed")
    with pytest.raises(ValueError):
        AdmissionConfig(priority_reserves=(("vip", 0.5),))


def test_config_dict_roundtrip():
    config = AdmissionConfig(
        rate_per_s=0.5,
        burst=3.0,
        tenant_rate_per_s=0.2,
        max_defer_s=4.0,
        degraded_quality=0.4,
        degraded_constraint="min_latency",
        default_deadline_s=30.0,
        estimate_prior_s=3.5,
        degraded_prior_s=1.2,
    )
    assert AdmissionConfig.from_dict(config.to_dict()) == config
    # admission_of normalises all three input shapes.
    assert admission_of(None) is None
    assert admission_of(config) is config
    assert admission_of(config.to_dict()) == config
    with pytest.raises(TypeError):
        admission_of(42)


# --------------------------------------------------------------------------- #
# Token bucket determinism
# --------------------------------------------------------------------------- #


def test_token_bucket_anchors_and_refills():
    bucket = TokenBucket(rate=1.0, burst=2.0)
    # First observation anchors at a full burst regardless of the epoch.
    assert bucket.wait_for(100.0) == 0.0
    bucket.spend(100.0)
    bucket.spend(100.0)
    # Empty: one token refills in 1s at rate 1.
    assert bucket.wait_for(100.0) == pytest.approx(1.0)
    assert bucket.wait_for(100.5) == pytest.approx(0.5)
    assert bucket.wait_for(101.0) == 0.0


def test_token_bucket_debt_is_observed_by_later_arrivals():
    bucket = TokenBucket(rate=1.0, burst=1.0)
    bucket.spend(0.0)
    bucket.spend(0.0)  # into debt
    assert bucket.level == pytest.approx(-1.0)
    assert bucket.wait_for(0.0) == pytest.approx(2.0)


def test_identical_controllers_decide_identically():
    config = AdmissionConfig(rate_per_s=1.0, burst=2.0, max_defer_s=3.0)
    script = [(f"tenant-{i % 3}", 0.4 * i) for i in range(40)]

    def run():
        controller = AdmissionController(config)
        return [
            controller.decide(tenant=t, priority="normal", arrival_at=at).outcome
            for t, at in script
        ]

    assert run() == run()


# --------------------------------------------------------------------------- #
# Ladder outcomes
# --------------------------------------------------------------------------- #


def test_rate_rejection_spends_no_tokens():
    config = AdmissionConfig(rate_per_s=1.0, burst=1.0, max_defer_s=0.0)
    controller = AdmissionController(config)
    # "high" has a zero reserve floor, so it can drain the whole burst.
    assert controller.decide("a", "high", 0.0).outcome == "admit"
    # Bucket empty, no defer patience: reject — but the budget is untouched,
    # so the arrival one refill later is admitted cleanly.
    assert controller.decide("a", "high", 0.0).outcome == "reject"
    assert controller.decide("a", "high", 0.0).reason == "rate"
    assert controller.decide("a", "high", 1.0).outcome == "admit"


def test_defer_waits_for_tokens():
    config = AdmissionConfig(rate_per_s=1.0, burst=1.0, max_defer_s=5.0)
    controller = AdmissionController(config)
    assert controller.decide("a", "high", 0.0).outcome == "admit"
    decision = controller.decide("a", "high", 0.0)
    assert decision.outcome == "defer"
    assert decision.wait_s == pytest.approx(1.0)


def test_deadline_infeasible_is_rejected_not_admitted():
    config = AdmissionConfig(rate_per_s=10.0, burst=10.0, degrade=False)
    controller = AdmissionController(config)
    decision = controller.decide(
        "a",
        "normal",
        arrival_at=0.0,
        deadline_s=5.0,
        estimate_s=4.0,
        backlog_until=3.0,  # start at 3.0 -> slack 2.0 < estimate 4.0
    )
    assert decision.outcome == "reject"
    assert decision.reason == "deadline"


def test_degrade_before_drop():
    config = AdmissionConfig(rate_per_s=10.0, burst=10.0, degrade=True)
    controller = AdmissionController(config)
    decision = controller.decide(
        "a",
        "normal",
        arrival_at=0.0,
        deadline_s=5.0,
        estimate_s=6.0,
        degraded_estimate_s=2.0,
    )
    assert decision.outcome == "degrade"
    # Even the degraded variant infeasible: shed.
    decision = controller.decide(
        "a",
        "normal",
        arrival_at=0.0,
        deadline_s=5.0,
        estimate_s=6.0,
        degraded_estimate_s=5.5,
    )
    assert decision.outcome == "reject"


def test_cost_priors_stand_in_for_unknown_estimates():
    config = AdmissionConfig(
        rate_per_s=10.0,
        burst=10.0,
        degrade=False,
        estimate_prior_s=4.0,
    )
    controller = AdmissionController(config)
    # No observed estimate, but the prior says 4s > 2s slack: shed now
    # instead of admitting into a deadline the job cannot meet.
    decision = controller.decide(
        "a", "normal", arrival_at=0.0, deadline_s=2.0, estimate_s=None
    )
    assert decision.outcome == "reject"
    # Without a prior the unknown cost is admitted optimistically.
    optimistic = AdmissionController(
        AdmissionConfig(rate_per_s=10.0, burst=10.0, degrade=False)
    )
    assert (
        optimistic.decide(
            "a", "normal", arrival_at=0.0, deadline_s=2.0, estimate_s=None
        ).outcome
        == "admit"
    )


def test_priority_reserves_never_starve_high_at_overload():
    """At 2x overload the low class runs dry first; high is never rejected."""
    config = AdmissionConfig(
        rate_per_s=1.0, burst=2.0, max_defer_s=0.0, tenant_rate_per_s=None
    )
    controller = AdmissionController(config)
    outcomes = {"high": [], "low": []}
    # 2 jobs/s offered against a 1 job/s budget, alternating classes.
    for i in range(40):
        priority = "high" if i % 2 == 0 else "low"
        decision = controller.decide("tenant", priority, arrival_at=i * 0.5)
        outcomes[priority].append(decision.outcome)
    assert "reject" not in outcomes["high"]
    assert outcomes["low"].count("reject") > 0


# --------------------------------------------------------------------------- #
# Trace-path integration
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def overload_registry():
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    registry.register_spec(base.with_overrides(priority="high"), name="feed-high")
    registry.register_spec(base.with_overrides(priority="low"), name="feed-low")
    return registry


def _overload_arrivals(count=40, interval=1.15):
    return [
        JobArrival(
            arrival_time=i * interval,
            workload="feed-high" if i % 2 == 0 else "feed-low",
        )
        for i in range(count)
    ]


OVERLOAD_ADMISSION = AdmissionConfig(
    rate_per_s=0.29,
    burst=2.0,
    max_defer_s=7.0,
    degraded_quality=0.0,
    degraded_constraint="min_latency",
    default_deadline_s=14.0,
    estimate_prior_s=3.5,
    degraded_prior_s=1.3,
)


def test_trace_sheds_distinctly_and_meets_deadlines(overload_registry):
    service = AIWorkflowService()
    report = service.submit_trace(
        _overload_arrivals(),
        registry=overload_registry,
        admission=OVERLOAD_ADMISSION,
    )
    service.shutdown()
    assert report.admission_controlled
    # Rejected arrivals never reach the engine; every offered arrival is
    # accounted exactly once.
    assert report.jobs + report.rejected_jobs == 40
    assert report.rejected_jobs > 0
    assert report.deferred_jobs + report.degraded_jobs > 0
    assert report.slo_violations == 0
    classes = report.priority_classes
    # The high tenant keeps most of its service; low sheds harder.
    assert classes["high"]["jobs"] > 0
    assert classes["low"]["rejected"] >= classes["high"]["rejected"]
    summary = report.summary()
    for key in ("p50_latency_s", "p95_latency_s", "p99_latency_s"):
        assert key in summary
    for key in ("degraded_jobs", "deferred_jobs", "rejected_jobs", "priority_classes"):
        assert key in summary


def test_degraded_jobs_form_their_own_group():
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    # feed-tight inherits the 2s default deadline: the full plan's 3.5s
    # prior misses it, the 1.3s degraded prior fits -> every arrival
    # degrades.  feed-relaxed declares its own wide deadline and runs full.
    registry.register_spec(base.with_overrides(priority="high"), name="feed-tight")
    registry.register_spec(
        base.with_overrides(priority="high", deadline_s=120.0), name="feed-relaxed"
    )
    config = AdmissionConfig(
        rate_per_s=10.0,
        burst=10.0,
        degraded_quality=0.0,
        degraded_constraint="min_latency",
        default_deadline_s=2.0,
        estimate_prior_s=3.5,
        degraded_prior_s=1.3,
    )
    service = AIWorkflowService()
    # Wide spacing keeps the backlog empty so only the deadline-vs-estimate
    # comparison decides, never the FIFO watermark.
    arrivals = [
        JobArrival(arrival_time=i * 30.0, workload="feed-relaxed")
        for i in range(2)
    ] + [
        JobArrival(arrival_time=60.0 + i * 30.0, workload="feed-tight")
        for i in range(2)
    ]
    records = []
    report = service.submit_trace(
        arrivals, registry=registry, admission=config, collector=records.append
    )
    service.shutdown()
    assert report.degraded_jobs == 2
    assert report.slo_violations == 0
    # Degraded jobs form their own planning group under the suffix…
    assert any(name.endswith(DEGRADED_SUFFIX) for name in report.groups)
    # …and run the cheaper latency-first plan: every degraded makespan must
    # beat every full-quality makespan.
    full = [r["makespan_s"] for r in records if r["outcome"] == "admit"]
    degraded = [r["makespan_s"] for r in records if r["outcome"] == "degrade"]
    assert len(full) == 2 and len(degraded) == 2
    assert max(degraded) < min(full)


def test_multiplex_trace_sheds_under_admission(overload_registry):
    """The ladder runs per arrival in multiplex mode too: at ~3x the rate
    budget it sheds distinctly and every offered arrival is accounted once."""
    service = AIWorkflowService()
    report = service.submit_trace(
        _overload_arrivals(),
        registry=overload_registry,
        mode="multiplex",
        admission=OVERLOAD_ADMISSION,
    )
    service.shutdown()
    assert report.admission_controlled
    assert report.jobs + report.rejected_jobs == 40
    assert report.rejected_jobs > 0
    assert report.deferred_jobs + report.degraded_jobs > 0
    classes = report.priority_classes
    assert classes["high"]["jobs"] > 0
    assert classes["low"]["rejected"] >= classes["high"]["rejected"]
    summary = report.summary()
    for key in ("p50_latency_s", "p95_latency_s", "p99_latency_s"):
        assert key in summary
    # Degraded recompiles land in their own template group, and the group
    # counters cover exactly the admitted jobs.
    if report.degraded_jobs:
        assert any(name.endswith(DEGRADED_SUFFIX) for name in report.groups)
    accounted = sum(
        counts["simulated"] + counts["replayed"] for counts in report.groups.values()
    )
    assert accounted == report.jobs


def test_report_without_admission_keeps_its_shape(overload_registry):
    """No admission -> no admission keys: summaries and provenance stay
    byte-compatible with pre-admission reports."""
    service = AIWorkflowService()
    report = service.submit_trace(
        _overload_arrivals(6, interval=10.0), registry=overload_registry
    )
    service.shutdown()
    assert not report.admission_controlled
    summary = report.summary()
    assert "rejected_jobs" not in summary
    assert "priority_classes" not in summary
    assert "rejected_jobs" not in report.provenance()


@pytest.mark.parametrize("mode", ["grouped", "multiplex"])
def test_degraded_admissions_wait_for_their_tokens(monkeypatch, mode):
    """A degrade decision can spend its token into debt (``wait_s > 0``), and
    its deadline check assumed the job starts no earlier than arrival plus
    that wait: the job must not jump the rate limit."""
    from schedule_cases import _overload_gauntlet

    gauntlet = _overload_gauntlet()
    calibration = gauntlet.measure_capacity()
    decisions = []
    decide = AdmissionController.decide

    def spy(controller, **kwargs):
        decisions.append(decide(controller, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(AdmissionController, "decide", spy)
    records = []
    service = AIWorkflowService()
    service.submit_trace(
        gauntlet.overload_arrivals(calibration["makespan_s"]),
        registry=gauntlet.gauntlet_registry(),
        mode=mode,
        admission=gauntlet.overload_config(calibration),
        collector=records.append,
    )
    service.shutdown()
    assert len(decisions) == len(records)
    waited = [
        (decision.wait_s, record)
        for decision, record in zip(decisions, records)
        if decision.outcome == "degrade" and decision.wait_s > 0.0
    ]
    assert waited, "the gauntlet trace makes degrade decisions that wait"
    for wait_s, record in waited:
        assert record["outcome"] == "degrade"
        # A fresh service's epoch is 0, so trace-relative times are exact.
        assert record["started_s"] >= record["arrival_s"] + wait_s


def test_fidelity_ladder_with_cost_priors_serves_the_whole_trace():
    """With cost priors the ladder degrades, and the degraded recompiles
    need instances the admitted jobs' idle ones hold: the trace completes
    with no failed job instead of aborting on a full cluster."""
    from repro.loadgen import default_registry
    from repro.workloads.arrival import poisson_arrivals
    from schedule_cases import FIDELITY_ADMISSION, WORKFLOWS

    arrivals = poisson_arrivals(
        rate_per_s=0.15, horizon_s=2000.0, workloads=WORKFLOWS, seed=7
    )[:200]
    service = AIWorkflowService()
    try:
        report = service.submit_trace(
            arrivals,
            registry=default_registry(),
            mode="multiplex",
            admission=AdmissionConfig(
                **FIDELITY_ADMISSION, estimate_prior_s=14.0, degraded_prior_s=6.0
            ),
        )
    finally:
        service.shutdown()
    assert len(arrivals) == 200
    assert (report.jobs, report.degraded_jobs, report.rejected_jobs) == (113, 13, 87)
    assert report.failed_jobs == 0


# --------------------------------------------------------------------------- #
# Interactive submit path
# --------------------------------------------------------------------------- #


def test_interactive_submit_raises_on_rejection():
    service = AIWorkflowService(
        admission=AdmissionConfig(rate_per_s=0.001, burst=2.0, max_defer_s=0.0)
    )
    spec = newsfeed_spec()
    service.submit_spec(spec)  # burst token
    with pytest.raises(AdmissionRejected) as exc_info:
        service.submit_spec(spec)
    assert exc_info.value.decision.reason == "rate"
    service.shutdown()


def test_set_admission_normalises_and_installs():
    service = AIWorkflowService()
    assert service.admission is None
    config = service.set_admission({"rate_per_s": 2.0, "burst": 3.0})
    assert isinstance(config, AdmissionConfig)
    assert service.admission.rate_per_s == 2.0
    service.shutdown()


# --------------------------------------------------------------------------- #
# Sharded merge of the new counters
# --------------------------------------------------------------------------- #


def test_merge_folds_admission_counters_exactly():
    left = TraceReport(mode="grouped")
    left.admission_controlled = True
    left.rejected_jobs = 3
    left.degraded_jobs = 1
    left.slo_violations = 2
    left.class_counters("high")["rejected"] = 3
    left.add_latency(1.0)
    right = TraceReport(mode="grouped")
    right.admission_controlled = True
    right.rejected_jobs = 2
    right.deferred_jobs = 4
    right.class_counters("high")["rejected"] = 2
    right.class_counters("low")["jobs"] = 4
    right.add_latency(3.0)
    merged = TraceReport.merged([left, right], shard_ids=[0, 1])
    assert merged.admission_controlled
    assert merged.rejected_jobs == 5
    assert merged.degraded_jobs == 1
    assert merged.deferred_jobs == 4
    assert merged.slo_violations == 2
    assert merged.priority_classes["high"]["rejected"] == 5
    assert merged.priority_classes["low"]["jobs"] == 4
    assert sorted(merged.latency_s) == [1.0, 3.0]


@pytest.mark.slow
def test_two_shard_process_backend_merges_shed_counters():
    """End to end: per-shard admission ladders, exact counter merge, and
    the 'admitted + rejected == offered' invariant across the process
    boundary."""
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    # These two names land on different shards of the 2-way sha256 ring,
    # so the merge genuinely folds two worker reports.
    registry.register_spec(
        base.with_overrides(priority="high"), name="feed-interactive"
    )
    registry.register_spec(base.with_overrides(priority="low"), name="feed-batch")
    arrivals = [
        JobArrival(
            arrival_time=i * 0.6,
            workload="feed-interactive" if i % 2 == 0 else "feed-batch",
        )
        for i in range(30)
    ]
    config = AdmissionConfig(
        rate_per_s=0.29,
        burst=2.0,
        max_defer_s=7.0,
        default_deadline_s=28.0,
        estimate_prior_s=3.5,
        degraded_prior_s=3.5,
    )
    with ShardedService(shards=2, backend="process", admission=config) as service:
        report = service.submit_trace(arrivals, registry=registry)
    assert report.admission_controlled
    assert len(report.shards) == 2
    assert report.jobs + report.rejected_jobs == len(arrivals)
    assert report.rejected_jobs > 0
    # Shard provenance carries the per-shard shed counts; they fold exactly.
    assert (
        sum(shard["rejected_jobs"] for shard in report.shards.values())
        == report.rejected_jobs
    )
    assert (
        sum(shard["slo_violations"] for shard in report.shards.values())
        == report.slo_violations
    )


@pytest.mark.slow
def test_two_shard_process_backend_multiplex_merges_exactly():
    """A multiplex trace under admission across 2 worker processes merges
    shed counters and per-class percentiles exactly: the process-backend
    report is field-for-field identical to the inline-backend one."""
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    registry.register_spec(
        base.with_overrides(priority="high"), name="feed-interactive"
    )
    registry.register_spec(base.with_overrides(priority="low"), name="feed-batch")
    arrivals = [
        JobArrival(
            arrival_time=i * 0.6,
            workload="feed-interactive" if i % 2 == 0 else "feed-batch",
        )
        for i in range(30)
    ]
    config = AdmissionConfig(
        rate_per_s=0.29,
        burst=2.0,
        max_defer_s=7.0,
        default_deadline_s=28.0,
        estimate_prior_s=3.5,
        degraded_prior_s=3.5,
    )

    def serve(backend):
        with ShardedService(shards=2, backend=backend, admission=config) as service:
            return service.submit_trace(arrivals, registry=registry, mode="multiplex")

    report = serve("process")
    assert report.admission_controlled
    assert len(report.shards) == 2
    assert report.jobs + report.rejected_jobs == len(arrivals)
    assert report.rejected_jobs > 0
    assert (
        sum(shard["rejected_jobs"] for shard in report.shards.values())
        == report.rejected_jobs
    )
    for priority, counters in report.priority_classes.items():
        assert counters["jobs"] + counters["rejected"] > 0, priority
    inline = serve("inline")
    # canonical_dict covers the shed counters, per-class breakdowns, and the
    # p50/p95/p99 percentiles — exact equality proves nothing is lost or
    # double-counted crossing the process boundary.
    assert report.canonical_dict() == inline.canonical_dict()
