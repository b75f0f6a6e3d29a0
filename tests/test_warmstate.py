"""Tests for the persistent warm-state cache (``repro.warmstate``).

Covers the acceptance bar for zero-cost restarts:

* a warm-started service (second process, same fingerprints) runs **zero**
  profiling sweeps — asserted via the profiler's module-level sweep counter
  — and serves byte-identical plans and traces;
* a recorded trace replays with zero probe simulations and byte-identical
  accounting (aggregates, service stats, watermarks, engine clock);
* every invalidation path — fingerprint mismatch, truncated file, corrupted
  bytes, schema bump — silently falls back to a cold run whose results are
  byte-identical to a never-cached service.
"""

import pickle

import pytest

import repro.warmstate as warmstate
from repro.loadgen import default_registry
from repro.profiling.profiler import (
    clear_default_profile_store_cache,
    profiling_sweep_count,
)
from repro.service import AIWorkflowService
from repro.warmstate import WarmStateCache
from repro.workloads.arrival import uniform_arrivals


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _arrivals():
    return uniform_arrivals(8, 1.0, workloads=("newsfeed",))


def _serve(service, registry):
    return service.submit_trace(_arrivals(), registry=registry)


def _snapshot(service, report):
    """Everything that must agree byte-for-byte between two servings."""
    stats = service.stats
    engine = service.runtime.engine
    return {
        "jobs": report.jobs,
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
        "job_summaries": dict(report.job_summaries),
        "stats_totals": (
            stats.jobs_completed,
            stats.total_makespan_s,
            stats.total_energy_wh,
            stats.total_cost,
        ),
        "per_job": dict(stats.per_job),
        "watermarks": tuple(engine.watermarks.items()),
        "engine_now": engine.now,
    }


def _cold_reference(registry):
    service = AIWorkflowService()
    report = _serve(service, registry)
    return _snapshot(service, report), report


# --------------------------------------------------------------------- #
# Core load/store envelope
# --------------------------------------------------------------------- #


def test_store_and_load_round_trip(tmp_path):
    cache = WarmStateCache(tmp_path)
    key = ("unit", 1, "abc")
    assert cache.store("unit", key, {"payload": [1, 2, 3]})
    assert cache.load("unit", key) == {"payload": [1, 2, 3]}
    assert cache.counters() == {"hits": 1, "misses": 0, "invalid": 0, "stores": 1}


def test_load_missing_file_is_a_miss(tmp_path):
    cache = WarmStateCache(tmp_path)
    assert cache.load("unit", ("nothing",)) is None
    assert cache.misses == 1 and cache.invalid == 0


def test_truncated_file_is_invalid_not_an_error(tmp_path):
    cache = WarmStateCache(tmp_path)
    key = ("unit", "t")
    cache.store("unit", key, list(range(100)))
    path = cache._path("unit", key)
    path.write_bytes(path.read_bytes()[:-7])
    assert cache.load("unit", key) is None
    assert cache.invalid == 1


def test_corrupted_bytes_are_invalid(tmp_path):
    cache = WarmStateCache(tmp_path)
    key = ("unit", "c")
    cache.store("unit", key, list(range(100)))
    path = cache._path("unit", key)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert cache.load("unit", key) is None
    assert cache.invalid == 1


def test_schema_bump_invalidates(tmp_path, monkeypatch):
    cache = WarmStateCache(tmp_path)
    key = ("unit", "s")
    cache.store("unit", key, "payload")
    monkeypatch.setattr(warmstate, "SCHEMA_VERSION", warmstate.SCHEMA_VERSION + 1)
    assert WarmStateCache(tmp_path).load("unit", key) is None


def test_kind_collision_is_rejected(tmp_path):
    cache = WarmStateCache(tmp_path)
    key = ("unit", "k")
    cache.store("unit", key, "payload")
    # Same key digest under a different kind resolves to a different file;
    # even a hand-copied file fails the envelope's kind check.
    cache._path("other", key).write_bytes(cache._path("unit", key).read_bytes())
    assert cache.load("other", key) is None
    assert cache.invalid == 1


def test_wrong_shape_payloads_are_invalid_not_hits(tmp_path):
    from repro.agents.library import default_library

    library = default_library()
    cache = WarmStateCache(tmp_path)
    cache.store("plans", cache._library_key(library), ["not", "a", "dict"])
    cache.store("trace", ("recording",), {"not": "a recording"})
    assert cache.load_plan_cache(library) is None
    assert cache.load_trace_recording(("recording",), 0) is None
    assert (cache.hits, cache.misses, cache.invalid) == (0, 2, 2)


def test_clear_and_entries(tmp_path):
    cache = WarmStateCache(tmp_path)
    cache.store("alpha", ("a",), 1)
    cache.store("beta", ("b",), 2)
    entries = cache.entries()
    assert sorted(entry.kind for entry in entries) == ["alpha", "beta"]
    assert cache.total_size_bytes() > 0
    assert cache.clear() == 2
    assert cache.entries() == []


# --------------------------------------------------------------------- #
# Warm restarts: zero sweeps, byte-identical results
# --------------------------------------------------------------------- #


def test_warm_restart_runs_zero_sweeps_and_is_byte_identical(tmp_path, registry):
    cold_snapshot, cold_report = _cold_reference(registry)
    direct = AIWorkflowService().submit_job(
        registry.build("newsfeed", "plan-probe")
    )

    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)
    assert first.warm_cache.stores >= 3  # profiles, plans, trace recording

    # Simulate a process restart: the in-process profiling memo is gone and
    # only the on-disk cache can avoid a fresh sweep.
    clear_default_profile_store_cache()
    sweeps_before = profiling_sweep_count()
    second = AIWorkflowService(warm_cache=tmp_path)
    warm_report = _serve(second, registry)
    assert profiling_sweep_count() == sweeps_before, "warm start must not re-profile"

    # The recorded trace replayed: zero probe simulations.
    assert warm_report.warm_trace is True
    assert warm_report.simulated_jobs == 0
    assert warm_report.replayed_jobs == warm_report.jobs

    # ... and the accounting is byte-identical to a never-cached cold start.
    assert _snapshot(second, warm_report) == cold_snapshot

    # Plans are byte-identical too: a fresh submit on the warm service plans
    # exactly what a cold service plans.
    warm_result = second.submit_job(registry.build("newsfeed", "plan-probe-2"))
    assert warm_result.plan.describe() == direct.plan.describe()


def test_warm_start_restores_planner_decisions(tmp_path, registry):
    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)
    assert first.runtime.planner.plan_cache_info["size"] > 0

    clear_default_profile_store_cache()
    second = AIWorkflowService(warm_cache=tmp_path)
    info = second.runtime.planner.plan_cache_info
    assert info["size"] > 0, "plan cache must be seeded from the warm cache"
    # The restored decisions actually hit: planning a known workload misses
    # nothing new.
    second.submit_job(registry.build("newsfeed", "restored-plan"))
    assert second.runtime.planner.plan_cache_info["misses"] == 0


# --------------------------------------------------------------------- #
# Invalidation: every stale path falls back to a byte-identical cold run
# --------------------------------------------------------------------- #


def _cold_fallback_check(tmp_path, registry, corrupt):
    """Populate the cache, corrupt it via ``corrupt``, then assert the next
    service runs cold (sweeps again) with byte-identical results."""
    cold_snapshot, _ = _cold_reference(registry)

    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)
    corrupt(WarmStateCache(tmp_path))

    clear_default_profile_store_cache()
    sweeps_before = profiling_sweep_count()
    service = AIWorkflowService(warm_cache=tmp_path)
    report = _serve(service, registry)
    assert profiling_sweep_count() == sweeps_before + 1, "stale cache must run cold"
    assert report.warm_trace is False
    assert report.simulated_jobs > 0
    assert _snapshot(service, report) == cold_snapshot


def test_truncated_cache_falls_back_to_cold_run(tmp_path, registry):
    def corrupt(cache):
        for entry in cache.entries():
            entry.path.write_bytes(entry.path.read_bytes()[: entry.size_bytes // 2])

    _cold_fallback_check(tmp_path, registry, corrupt)


def test_corrupted_cache_falls_back_to_cold_run(tmp_path, registry):
    def corrupt(cache):
        for entry in cache.entries():
            blob = bytearray(entry.path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            entry.path.write_bytes(bytes(blob))

    _cold_fallback_check(tmp_path, registry, corrupt)


def test_schema_bump_falls_back_to_cold_run(tmp_path, registry, monkeypatch):
    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)

    cold_snapshot, _ = _cold_reference(registry)
    monkeypatch.setattr(warmstate, "SCHEMA_VERSION", warmstate.SCHEMA_VERSION + 1)
    clear_default_profile_store_cache()
    sweeps_before = profiling_sweep_count()
    service = AIWorkflowService(warm_cache=tmp_path)
    report = _serve(service, registry)
    assert profiling_sweep_count() == sweeps_before + 1
    assert report.warm_trace is False
    assert _snapshot(service, report) == cold_snapshot


def test_malformed_warm_payloads_fall_back_cold_and_count_invalid(tmp_path, registry):
    from repro.agents.library import default_library

    library = default_library()
    seeded = WarmStateCache(tmp_path)
    seeded.save_profiles(library, ["not-a-profile"])
    seeded.save_plan_cache(library, 0, [("garbage",)])

    cold_snapshot, _ = _cold_reference(registry)
    service = AIWorkflowService(warm_cache=tmp_path)
    # Each envelope is sound but its payload unusable: counted exactly like
    # a corrupt envelope (invalid plus miss), never as a hit.
    counters = service.warm_cache.counters()
    assert (counters["hits"], counters["misses"], counters["invalid"]) == (0, 2, 2)
    report = _serve(service, registry)
    assert report.warm_trace is False
    assert _snapshot(service, report) == cold_snapshot


def test_library_fingerprint_mismatch_forces_reconvergence(tmp_path, registry):
    from tests.test_service import TurboSTT

    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)

    # A never-cached reference with the identical registration sequence.
    reference = AIWorkflowService()
    reference.register_agent(TurboSTT())
    reference_report = reference.submit_trace(
        uniform_arrivals(4, 1.0, workloads=("video-understanding",)),
        registry=registry,
    )

    clear_default_profile_store_cache()
    service = AIWorkflowService(warm_cache=tmp_path)
    service.register_agent(TurboSTT())
    report = service.submit_trace(
        uniform_arrivals(4, 1.0, workloads=("video-understanding",)),
        registry=registry,
    )
    # The library changed after the recording was made: the trace context
    # key misses, the group re-probes, and results match the cold service.
    assert report.warm_trace is False
    assert report.simulated_jobs >= 2
    assert _snapshot(service, report) == _snapshot(reference, reference_report)


def test_policy_fingerprint_keys_trace_recordings(tmp_path, registry):
    first = AIWorkflowService(warm_cache=tmp_path)
    _serve(first, registry)

    clear_default_profile_store_cache()
    # Same trace, different control-plane policy: the recording must not be
    # replayed for a policy it was not captured under.
    service = AIWorkflowService(warm_cache=tmp_path, policy="latency_first")
    report = _serve(service, registry)
    assert report.warm_trace is False
    assert report.simulated_jobs > 0


def test_broken_cache_directory_never_breaks_serving(tmp_path, registry):
    # A file where the cache directory should be: every store fails, every
    # load misses, and the service still serves correctly.
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    service = AIWorkflowService(warm_cache=blocked)
    report = _serve(service, registry)
    assert report.jobs == 8
    assert service.warm_cache.stores == 0


def _tamper_trace_recording(cache_dir, tamper):
    """Rewrite the stored trace recording under its own key, through a sound
    envelope: only the payload is unusable."""
    cache = WarmStateCache(cache_dir)
    [entry] = [entry for entry in cache.entries() if entry.kind == "trace"]
    envelope = pickle.loads(entry.path.read_bytes()[len(warmstate._MAGIC) + 32 :])
    recording = envelope["payload"]
    tamper(recording)
    assert cache.store("trace", envelope["key"], recording)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda recording: recording.script.pop(),
        lambda recording: recording.records.__setitem__(
            slice(None), ["not-a-record"] * len(recording.records)
        ),
        lambda recording: recording.script.__setitem__(0, len(recording.records)),
        lambda recording: recording.script.__setitem__(0, float(recording.script[0])),
    ],
    ids=[
        "script-one-step-short",
        "records-not-replay-records",
        "step-out-of-range",
        "float-step",
    ],
)
def test_unusable_trace_recording_is_invalid_and_serves_cold(
    tmp_path, registry, tamper
):
    cold_snapshot, _ = _cold_reference(registry)
    _serve(AIWorkflowService(warm_cache=tmp_path), registry)
    _tamper_trace_recording(tmp_path, tamper)

    clear_default_profile_store_cache()
    service = AIWorkflowService(warm_cache=tmp_path)
    report = _serve(service, registry)
    assert report.warm_trace is False
    assert report.simulated_jobs > 0
    assert _snapshot(service, report) == cold_snapshot
    # Profiles and plans hit; the recording loaded but could not serve the
    # trace, so it counts as invalid (and a miss), never as a hit.
    counters = service.warm_cache.counters()
    assert (counters["hits"], counters["misses"], counters["invalid"]) == (2, 1, 1)
