"""Sharded service scale-out: routing determinism, exact merges, and the
one-shard differential guarantee against the unsharded service."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen import TraceReport, default_registry
from repro.service import AIWorkflowService, ServiceStats
from repro.sharding import ShardRouter, ShardedService, stable_key_hash
from repro.telemetry.metrics import ThroughputMeter
from repro.warmstate import WarmStateCache, shard_dir_name
from repro.workloads.arrival import JobArrival, uniform_arrivals

# --------------------------------------------------------------------------- #
# Consistent-hash routing
# --------------------------------------------------------------------------- #

KEYS = [f"tenant-{i}" for i in range(500)]


def test_router_is_deterministic_across_instances():
    first = ShardRouter(shards=4)
    second = ShardRouter(shards=4)
    assert [first.shard_for(k) for k in KEYS] == [second.shard_for(k) for k in KEYS]


def test_router_is_deterministic_across_processes():
    """sha256 routing must not depend on per-process hash randomization."""
    code = (
        "from repro.sharding import ShardRouter\n"
        "router = ShardRouter(shards=4)\n"
        "print(','.join(str(router.shard_for(f'tenant-{i}')) for i in range(500)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    # Two child runs get *different* hash seeds; both must agree with us.
    runs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        output = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        runs.append([int(part) for part in output.split(",")])
    router = ShardRouter(shards=4)
    expected = [router.shard_for(key) for key in KEYS]
    assert runs[0] == expected
    assert runs[1] == expected


def test_stable_key_hash_is_sha256_based():
    import hashlib

    digest = hashlib.sha256(b"tenant-0").digest()[:8]
    assert stable_key_hash("tenant-0") == int.from_bytes(digest, "big")


@given(st.text(min_size=0, max_size=40), st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_router_assigns_every_key_in_range(key, shards):
    shard = ShardRouter(shards=shards).shard_for(key)
    assert 0 <= shard < shards


def test_single_shard_routes_everything_to_zero():
    router = ShardRouter(shards=1)
    assert {router.shard_for(k) for k in KEYS} == {0}


def test_scale_out_remaps_only_a_fraction_of_keys():
    """Consistent hashing: going 4 -> 5 shards should move roughly 1/5 of
    the keys, not reshuffle everything (the modulo-hash failure mode)."""
    before = ShardRouter(shards=4)
    after = ShardRouter(shards=5)
    moved = sum(1 for k in KEYS if before.shard_for(k) != after.shard_for(k))
    assert 0 < moved < len(KEYS) // 2


def test_router_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ShardRouter(shards=0)
    with pytest.raises(ValueError):
        ShardRouter(shards=2, replicas=0)


def test_partition_preserves_order_and_tenant_affinity():
    arrivals = uniform_arrivals(
        count=20, interval_s=1.0, workloads=("newsfeed", "document-qa", "chain-of-thought")
    )
    assignment = ShardRouter(shards=3).partition_arrivals(arrivals)
    seen = []
    for shard, (indices, subset) in assignment.items():
        assert indices == sorted(indices)  # original relative order kept
        assert len(indices) == len(subset)
        # every arrival of a workload lands on exactly this shard
        for arrival in subset:
            assert ShardRouter(shards=3).shard_for(arrival.workload) == shard
        seen.extend(indices)
    assert sorted(seen) == list(range(20))


# --------------------------------------------------------------------------- #
# Merge layer: property-style checks
# --------------------------------------------------------------------------- #

job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),  # makespan
        st.floats(min_value=0.0, max_value=50.0),  # energy
        st.floats(min_value=0.0, max_value=5.0),  # cost
        st.floats(min_value=0.0, max_value=1.0),  # quality
        st.floats(min_value=0.0, max_value=10.0),  # queue delay
    ),
    min_size=0,
    max_size=8,
)


@dataclasses.dataclass
class _StubResult:
    job_id: str
    makespan_s: float
    energy_wh: float
    cost: float
    quality: float
    started_at: float = 0.0
    finished_at: float = 0.0
    transfer_events: int = 0

    def compact_summary(self):
        return {
            "makespan_s": self.makespan_s,
            "energy_wh": self.energy_wh,
            "cost": self.cost,
            "quality": self.quality,
        }


def _report(jobs, tag):
    report = TraceReport()
    for position, (makespan, energy, cost, quality, delay) in enumerate(jobs):
        result = _StubResult(
            job_id=f"{tag}-{position}",
            makespan_s=makespan,
            energy_wh=energy,
            cost=cost,
            quality=quality,
            started_at=delay,
            finished_at=delay + makespan,
        )
        report.account(result, arrival_time=0.0, simulated=position % 2 == 0)
        report.groups.setdefault(tag, {})
        report.groups[tag]["replayed"] = report.groups[tag].get("replayed", 0) + 1
    return report


def _stats(jobs, tag):
    stats = ServiceStats()
    for position, (makespan, energy, cost, quality, _) in enumerate(jobs):
        stats.record(
            _StubResult(
                job_id=f"{tag}-{position}",
                makespan_s=makespan,
                energy_wh=energy,
                cost=cost,
                quality=quality,
            )
        )
    return stats


def _assert_reports_equivalent(left: TraceReport, right: TraceReport):
    """Counters, extrema, and dicts exact; float totals approx (IEEE-754
    addition commutes exactly but re-associates only approximately)."""
    assert left.jobs == right.jobs
    assert left.simulated_jobs == right.simulated_jobs
    assert left.replayed_jobs == right.replayed_jobs
    assert left.failed_jobs == right.failed_jobs
    assert left.groups == right.groups
    assert set(left.job_summaries) == set(right.job_summaries)
    assert left.throughput == right.throughput
    for name in ("makespan_s", "energy_wh", "cost", "quality", "queue_delay_s"):
        mine, theirs = getattr(left, name), getattr(right, name)
        assert mine.count == theirs.count
        assert mine.min == theirs.min
        assert mine.max == theirs.max
        assert mine.total == pytest.approx(theirs.total, rel=1e-12, abs=1e-12)


@given(job_lists, job_lists, job_lists)
@settings(max_examples=40, deadline=None)
def test_trace_report_merge_is_associative(a, b, c):
    ra, rb, rc = _report(a, "a"), _report(b, "b"), _report(c, "c")
    left = TraceReport.merged([TraceReport.merged([ra, rb]), rc])
    right = TraceReport.merged([ra, TraceReport.merged([rb, rc])])
    _assert_reports_equivalent(left, right)


@given(job_lists, job_lists, job_lists)
@settings(max_examples=40, deadline=None)
def test_trace_report_merge_is_order_insensitive(a, b, c):
    reports = [_report(a, "a"), _report(b, "b"), _report(c, "c")]
    forward = TraceReport.merged(reports)
    # fresh copies: merged() folds into a deepcopy but merge mutates inputs
    reports = [_report(c, "c"), _report(a, "a"), _report(b, "b")]
    backward = TraceReport.merged(reports)
    _assert_reports_equivalent(forward, backward)


@given(job_lists, job_lists)
@settings(max_examples=40, deadline=None)
def test_service_stats_merge_is_order_insensitive(a, b):
    forward = ServiceStats.merged([_stats(a, "a"), _stats(b, "b")])
    backward = ServiceStats.merged([_stats(b, "b"), _stats(a, "a")])
    assert forward.jobs_completed == backward.jobs_completed
    assert forward.total_energy_wh == pytest.approx(backward.total_energy_wh)
    assert forward.total_cost == pytest.approx(backward.total_cost)
    assert set(forward.per_job) == set(backward.per_job)
    assert forward.makespan_s.min == backward.makespan_s.min
    assert forward.makespan_s.max == backward.makespan_s.max


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=0,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=0,
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_throughput_meter_merge_is_exact_and_commutative(a, b):
    def build(spans):
        meter = ThroughputMeter()
        for start, length in spans:
            meter.record(start, start + length)
        return meter

    ab = build(a)
    ab.merge(build(b))
    ba = build(b)
    ba.merge(build(a))
    assert ab == ba
    sequential = build(a + b)
    assert ab == sequential


def test_merge_single_report_is_identity():
    report = _report([(1.0, 2.0, 0.5, 0.9, 0.1)], "solo")
    merged = TraceReport.merged([report])
    assert merged == report


def test_merge_rejects_mode_mismatch():
    grouped = TraceReport(mode="grouped")
    multiplex = TraceReport(mode="multiplex")
    with pytest.raises(ValueError):
        grouped.merge(multiplex)


def test_merge_records_shard_provenance():
    merged = TraceReport.merged(
        [_report([(1.0, 1.0, 1.0, 1.0, 0.0)], "a"), _report([], "b")],
        shard_ids=[3, 7],
    )
    assert set(merged.shards) == {3, 7}
    assert merged.shards[3]["jobs"] == 1
    assert merged.shards[7]["jobs"] == 0
    assert merged.summary()["shards"] == 2


# --------------------------------------------------------------------------- #
# The 1-shard differential: sharded == unsharded, field for field
# --------------------------------------------------------------------------- #

#: Fields legitimately different between two runs of the same trace: wall
#: clock is measured, and shard provenance exists only on the merged side.
_WALL_FIELDS = {"wall_seconds", "shards"}


@pytest.fixture(scope="module")
def small_trace():
    registry = default_registry()
    arrivals = uniform_arrivals(
        count=12,
        interval_s=2.0,
        workloads=("newsfeed", "chain-of-thought", "document-qa"),
    )
    return registry, arrivals


def test_one_shard_trace_is_byte_identical_to_unsharded(small_trace):
    registry, arrivals = small_trace
    plain = AIWorkflowService()
    baseline = plain.submit_trace(arrivals, registry=registry)
    sharded = ShardedService(shards=1, backend="inline")
    merged = sharded.submit_trace(arrivals, registry=registry)
    for field_info in dataclasses.fields(TraceReport):
        if field_info.name in _WALL_FIELDS:
            continue
        assert getattr(merged, field_info.name) == getattr(
            baseline, field_info.name
        ), f"TraceReport.{field_info.name} diverged on the 1-shard path"
    assert list(merged.shards) == [0]

    # the merged service stats must match the plain service's too
    for field_info in dataclasses.fields(ServiceStats):
        if field_info.name == "shards":
            continue
        assert getattr(sharded.stats, field_info.name) == getattr(
            plain.stats, field_info.name
        ), f"ServiceStats.{field_info.name} diverged on the 1-shard path"


def test_multi_shard_inline_covers_the_whole_trace(small_trace):
    registry, arrivals = small_trace
    sharded = ShardedService(shards=3, backend="inline")
    merged = sharded.submit_trace(arrivals, registry=registry)
    assert merged.jobs == len(arrivals)
    assert merged.simulated_jobs + merged.replayed_jobs == merged.jobs
    assert sum(record["jobs"] for record in merged.shards.values()) == len(arrivals)
    assert sharded.stats.jobs_completed == len(arrivals)
    assert sum(
        record["jobs_completed"] for record in sharded.stats.shards.values()
    ) == len(arrivals)
    # job ids are the global-trace-index ids an unsharded run would mint
    for job_id in merged.job_summaries:
        assert job_id.startswith("trace-")
    # every tenant's jobs landed on exactly one shard
    per_workload_jobs = {}
    for _, report in sharded._last_reports.items():
        for name in report.groups:
            per_workload_jobs.setdefault(name, 0)
            per_workload_jobs[name] += 1
    assert all(count == 1 for count in per_workload_jobs.values())


def test_merge_listener_receives_global_view(small_trace):
    registry, arrivals = small_trace
    sharded = ShardedService(shards=2, backend="inline")
    captured = []
    sharded.add_merge_listener(lambda merged, per_shard: captured.append((merged, per_shard)))
    merged = sharded.submit_trace(arrivals, registry=registry)
    assert len(captured) == 1
    assert captured[0][0] is merged
    assert set(captured[0][1]) == set(merged.shards)
    view = sharded.global_view()
    assert view["jobs_completed"] == len(arrivals)
    assert view["shards"] == 2
    assert set(view["trace_provenance"]) == set(merged.shards)


def test_shard_local_warm_cache_directories(tmp_path, small_trace):
    registry, arrivals = small_trace
    sharded = ShardedService(shards=2, backend="inline", warm_cache=tmp_path)
    sharded.submit_trace(arrivals, registry=registry)
    sharded.save_warm_state()
    root = WarmStateCache(tmp_path)
    summary = {record["name"]: record for record in root.shard_summary()}
    assert summary  # at least one shard persisted something
    for name, record in summary.items():
        assert name.startswith("shard-")
        assert record["entries"] > 0
        assert record["size_bytes"] > 0
    assert root.total_size_bytes(include_shards=True) > root.total_size_bytes()
    # root-level entries() never mixes shard files in
    assert root.entries() == []
    assert root.clear() > 0
    assert root.shard_summary() == []


def test_shard_dir_name_is_stable():
    assert shard_dir_name(0) == "shard-00"
    assert shard_dir_name(41) == "shard-41"
    with pytest.raises(ValueError):
        shard_dir_name(-1)


def test_single_job_routing_is_deterministic(small_trace):
    registry, _ = small_trace
    sharded = ShardedService(shards=2, backend="inline")
    spec = registry.spec("newsfeed")
    result = sharded.submit_spec(spec, job_id="routed-job")
    assert result.job_id == "routed-job"
    expected = sharded.router.shard_for(spec.digest())
    assert list(sharded._inline) == [expected]
    # same spec again: same shard, no second service built
    sharded.submit_spec(spec, job_id="routed-again")
    assert list(sharded._inline) == [expected]


def test_policy_passthrough_applies_to_every_shard():
    sharded = ShardedService(shards=2, backend="inline", policy="energy_first")
    assert sharded.policy is not None
    sharded._inline_shard(0)
    sharded._inline_shard(1)
    bundle = sharded.set_policy("latency_first")
    for service in sharded._inline.values():
        assert service.policy is bundle


def test_sharded_service_argument_validation():
    with pytest.raises(ValueError):
        ShardedService(shards=2, backend="threads")
    with pytest.raises(TypeError):
        from repro.policies import get_bundle

        ShardedService(shards=2, backend="process", policy=get_bundle("energy_first"))
    with pytest.raises(ValueError):
        ShardedService(shards=2, backend="inline").submit_trace([])
    sharded = ShardedService(shards=2, backend="process")
    with pytest.raises(ValueError):  # dynamics need shard-local engines
        from repro.cluster.dynamics import DynamicsConfig

        sharded.attach_dynamics(DynamicsConfig())
    with pytest.raises(ValueError):  # job_ids callables don't cross processes
        sharded.submit_trace(
            [JobArrival(0.0, "newsfeed")], job_ids=lambda i, w: f"x-{i}"
        )


def test_client_facade_fronts_a_sharded_service(small_trace):
    from repro.client import MurakkabClient

    registry, arrivals = small_trace
    with MurakkabClient(shards=2, shard_backend="inline", registry=registry) as client:
        handle = client.submit_trace(arrivals)
        assert handle.jobs == len(arrivals)
        assert len(handle.report.shards) >= 1
        assert client.stats.jobs_completed == len(arrivals)
    with pytest.raises(ValueError):
        MurakkabClient(shards=0)
    with pytest.raises(ValueError):
        MurakkabClient(service=AIWorkflowService(), shards=2)


# --------------------------------------------------------------------------- #
# Process backend (one compact end-to-end check; spawn is expensive)
# --------------------------------------------------------------------------- #


@pytest.mark.slow
def test_process_backend_end_to_end(tmp_path):
    registry = default_registry()
    arrivals = uniform_arrivals(
        count=8, interval_s=2.0, workloads=("newsfeed", "document-qa")
    )
    with ShardedService(
        shards=2, backend="process", warm_cache=tmp_path, policy="energy_first"
    ) as sharded:
        merged = sharded.submit_trace(arrivals, registry=registry)
        assert merged.jobs == len(arrivals)
        assert sum(r["jobs"] for r in merged.shards.values()) == len(arrivals)
        assert sharded.stats.jobs_completed == len(arrivals)
        # worker job ids carry the global trace indices
        assert all(job_id.startswith("trace-") for job_id in merged.job_summaries)
        counters = sharded.warm_cache_counters()
        assert counters["stores"] > 0
        # single-job submission crosses the boundary and comes back slim
        result = sharded.submit_spec(registry.spec("newsfeed"), job_id="proc-job")
        assert result.job_id == "proc-job"
        assert result.makespan_s > 0
        assert result.trace is None and result.plan is None
    # every shard that served persisted to its own subdirectory
    shard_dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert shard_dirs
    assert all(name.startswith("shard-") for name in shard_dirs)


# --------------------------------------------------------------------------- #
# Warm generations: shard job ids are the unsharded serving's
# --------------------------------------------------------------------------- #


def _warm_generation_trace():
    # video-understanding routes to one shard of two, the rest to the other.
    return uniform_arrivals(
        count=48,
        interval_s=30.0,
        workloads=("newsfeed", "video-understanding", "chain-of-thought"),
    )


def _unsharded_generations(registry, indices, subset, cache_dir):
    """A cold and a warm serving of one shard's sub-trace on a plain service,
    naming jobs by their whole-trace index through a caller's ``job_ids``."""
    job_ids = lambda local, workload: f"trace-{indices[local]:05d}-{workload}"  # noqa: E731
    for _ in range(2):
        service = AIWorkflowService(warm_cache=cache_dir)
        report = service.submit_trace(subset, registry=registry, job_ids=job_ids)
        service.shutdown()
    assert report.warm_trace
    return report, service


@pytest.mark.parametrize(
    "backend, numpy_enabled",
    [
        pytest.param("inline", True, id="inline-numpy"),
        pytest.param("inline", False, id="inline-pure-python"),
        # Spawned workers import the accounting module afresh, so only the
        # default backend can be forced there.
        pytest.param("process", True, id="process-numpy", marks=pytest.mark.slow),
    ],
)
def test_warm_generation_matches_unsharded_serving(
    tmp_path, monkeypatch, backend, numpy_enabled
):
    if not numpy_enabled:
        import repro.telemetry.metrics as metrics

        monkeypatch.setattr(metrics, "_NUMPY_MIN_BATCH", sys.maxsize)
    registry = default_registry()
    arrivals = _warm_generation_trace()
    for _ in range(2):
        sharded = ShardedService(shards=2, backend=backend, warm_cache=tmp_path / "sharded")
        try:
            merged = sharded.submit_trace(arrivals, registry=registry)
            reports = dict(sharded._last_reports)
            partition = sharded.router.partition_arrivals(arrivals)
            if backend == "inline":
                inline = {shard: sharded._inline_shard(shard) for shard in partition}
                stats = {shard: service.stats for shard, service in inline.items()}
            else:
                inline, stats = {}, dict(sharded._shard_stats)
        finally:
            sharded.shutdown()
    assert merged.warm_trace and len(partition) == 2
    assert set(merged.job_summaries) == {
        f"trace-{index:05d}-{arrival.workload}" for index, arrival in enumerate(arrivals)
    }
    for shard, (indices, subset) in partition.items():
        report, service = _unsharded_generations(
            registry, indices, subset, tmp_path / f"plain-{shard}"
        )
        assert reports[shard].replayed_jobs == len(subset)
        assert list(reports[shard].job_summaries.items()) == list(
            report.job_summaries.items()
        )
        assert list(stats[shard].per_job.items()) == list(service.stats.per_job.items())
        if shard in inline:
            assert list(inline[shard].runtime.engine.watermarks.items()) == list(
                service.runtime.engine.watermarks.items()
            )
