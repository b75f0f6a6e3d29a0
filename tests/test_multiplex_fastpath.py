"""Multiplex fast path: template compilation, the steady-window detector,
batched replay byte-identity, and capture/admission parity.

The acceptance bar mirrors the grouped vectorized-accounting suite: on a
frozen periodic trace the fast path (vectorized batched replay) must land on
byte-identical reports, stats, and engine watermarks as the per-event
reference path (``vectorized=False``), under numpy and pure-Python
accounting alike, while ``multiplex_window=0`` preserves the exact
pre-detector per-event serving behaviour.
"""

import sys
from dataclasses import replace as dataclass_replace

import pytest

from test_loadgen import DIFFERENTIAL_CASES, DIFFERENTIAL_PARAMS, _accounting_snapshot

from repro.admission import AdmissionConfig
from repro.capture import (
    TraceCapture,
    capture_trace,
    replay_capture,
    replays_identically,
)
from repro.loadgen import ServiceLoadGenerator, WorkloadRegistry, default_registry
from repro.service import AIWorkflowService
from repro.sim.energy import EnergyBreakdown
from repro.core.job import JobResult
from repro.workflows.newsfeed import newsfeed_spec
from repro.workloads.arrival import JobArrival, poisson_arrivals


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _burst_arrivals(windows=12, span=40.0):
    """A periodic trace: 3 overlapping arrivals per window, windows drained
    before the next one starts — the shape the steady-window detector
    recognizes (period 3)."""
    arrivals = []
    for w in range(windows):
        base = w * span
        arrivals.append(JobArrival(base, "newsfeed"))
        arrivals.append(JobArrival(base + 0.3, "chain-of-thought"))
        arrivals.append(JobArrival(base + 0.6, "newsfeed"))
    return arrivals


def _serve(registry, service_options=None, **options):
    service = AIWorkflowService(**(service_options or {}))
    report = service.submit_trace(
        _burst_arrivals(), registry=registry, mode="multiplex", **options
    )
    return service, report


# --------------------------------------------------------------------- #
# Steady-window detection and honest counters
# --------------------------------------------------------------------- #


def test_steady_window_replay_triggers(registry):
    service, report = _serve(registry)
    # Two windows simulated to confirm the pattern, the remaining ten
    # replayed as batched completion deltas.
    assert report.simulated_jobs == 6
    assert report.replayed_jobs == 30
    assert report.jobs == 36
    assert report.replay_runs == 1
    # Satellite: the per-group replayed counters reflect actual replays.
    assert report.groups["newsfeed"] == {"simulated": 4, "replayed": 20}
    assert report.groups["chain-of-thought"] == {"simulated": 2, "replayed": 10}
    service.shutdown()


def test_multiplex_window_zero_disables_detection(registry):
    service, report = _serve(registry, multiplex_window=0)
    assert report.simulated_jobs == 36
    assert report.replayed_jobs == 0
    assert report.replay_runs == 0
    service.shutdown()


def test_explicit_window_is_pattern_verified(registry):
    # The trace repeats at period 3; an explicit window of 4 does not hold,
    # so detection falls back to full per-event serving.
    service, report = _serve(registry, multiplex_window=4)
    assert report.replayed_jobs == 0 and report.simulated_jobs == 36
    service.shutdown()
    service, report = _serve(registry, multiplex_window=3)
    assert report.replayed_jobs == 30 and report.simulated_jobs == 6
    service.shutdown()


def test_aperiodic_trace_never_replays(registry):
    arrivals = poisson_arrivals(
        rate_per_s=0.2, horizon_s=200.0, workloads=("newsfeed",), seed=11
    )
    service = AIWorkflowService()
    report = service.submit_trace(arrivals, registry=registry, mode="multiplex")
    assert report.replayed_jobs == 0
    assert report.simulated_jobs == len(arrivals)
    service.shutdown()


def test_multiplex_window_validation(registry):
    generator = ServiceLoadGenerator(AIWorkflowService(), registry)
    arrivals = [JobArrival(0.0, "newsfeed")]
    with pytest.raises(ValueError):
        generator.run(arrivals, mode="grouped", multiplex_window=2)
    with pytest.raises(ValueError):
        generator.run(arrivals, mode="multiplex", multiplex_window=-1)


def test_replayed_windows_never_clone_their_jobs(registry, monkeypatch):
    """Only submissions run_submissions admits get a Job clone: the count
    stays at the simulated jobs, however many windows the burst replays."""
    import repro.loadgen as loadgen

    clones = []

    def counting_replace(job, **changes):
        clones.append(changes["job_id"])
        return dataclass_replace(job, **changes)

    monkeypatch.setattr(loadgen, "dataclass_replace", counting_replace)
    counts = {}
    for windows in (12, 60):
        clones.clear()
        service = AIWorkflowService()
        report = service.submit_trace(
            _burst_arrivals(windows), registry=registry, mode="multiplex"
        )
        service.shutdown()
        assert report.replayed_jobs == 3 * windows - report.simulated_jobs
        templates = len(report.groups)
        assert len(clones) <= report.simulated_jobs + templates
        counts[windows] = len(clones)
    assert counts[12] == counts[60]


# --------------------------------------------------------------------- #
# Byte-identity: vectorized batched replay vs. the per-event reference
# --------------------------------------------------------------------- #


#: Jobs replayed per differential case: the congested fabric needs a third
#: window before two consecutive windows match.
REPLAYED = {"plain": 30, "admission": 30, "congested": 27}


@pytest.mark.parametrize("numpy_enabled, case", DIFFERENTIAL_PARAMS)
def test_multiplex_fast_path_is_byte_identical(
    registry, monkeypatch, numpy_enabled, case
):
    if not numpy_enabled:
        import repro.telemetry.metrics as metrics

        # Every batch takes the loop branch of the sequential sums.
        monkeypatch.setattr(metrics, "_NUMPY_MIN_BATCH", sys.maxsize)
    service_options, options = DIFFERENTIAL_CASES[case]
    ref_records, vec_records = [], []
    ref_service, reference = _serve(
        registry,
        service_options,
        vectorized=False,
        collector=ref_records.append,
        **options,
    )
    vec_service, vectorized = _serve(
        registry, service_options, collector=vec_records.append, **options
    )
    # Both paths detect the same window and replay the same tail; only the
    # accounting mechanism differs (array-level vs. one engine event each).
    assert reference.replayed_jobs == vectorized.replayed_jobs == REPLAYED[case]
    assert reference.replay_runs == 0 and vectorized.replay_runs == 1
    assert _accounting_snapshot(vec_service, vectorized) == _accounting_snapshot(
        ref_service, reference
    )
    assert vec_records == ref_records and len(vec_records) == 36
    ref_service.shutdown()
    vec_service.shutdown()


# --------------------------------------------------------------------- #
# Latency accounting (satellite: no silent absolute-epoch latencies)
# --------------------------------------------------------------------- #


def test_unknown_completion_job_id_raises(registry, monkeypatch):
    """A completion whose job id was never admitted must raise, not be
    accounted against arrival time 0.0 (an absolute-epoch latency)."""
    import repro.core.multitenant as multitenant

    def fake_run_submissions(runtime, submissions, **kwargs):
        kwargs["on_result"](
            JobResult(
                job_id="never-admitted",
                makespan_s=1.0,
                started_at=0.0,
                finished_at=1.0,
                energy=EnergyBreakdown(),
                cost=0.0,
                quality=1.0,
            )
        )
        raise AssertionError("on_result must reject the unknown id first")

    monkeypatch.setattr(multitenant, "run_submissions", fake_run_submissions)
    generator = ServiceLoadGenerator(AIWorkflowService(), registry)
    with pytest.raises(ValueError, match="unknown job id"):
        generator.run([JobArrival(0.0, "newsfeed")], mode="multiplex")


# --------------------------------------------------------------------- #
# Admission + capture parity
# --------------------------------------------------------------------- #

ADMISSION = AdmissionConfig(
    rate_per_s=0.29,
    burst=2.0,
    max_defer_s=7.0,
    degraded_quality=0.0,
    degraded_constraint="min_latency",
    default_deadline_s=14.0,
    estimate_prior_s=3.5,
    degraded_prior_s=1.3,
)


def _spec_registry():
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    registry.register_spec(base.with_overrides(priority="high"), name="feed-high")
    registry.register_spec(base.with_overrides(priority="low"), name="feed-low")
    return registry


def _overload_arrivals(count=24, interval=1.1):
    return [
        JobArrival(
            arrival_time=i * interval,
            workload="feed-high" if i % 2 == 0 else "feed-low",
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("window", [None, 0], ids=["auto-window", "no-window"])
def test_multiplex_capture_replays_identically(window):
    service = AIWorkflowService()
    capture, report = capture_trace(
        service,
        _overload_arrivals(),
        registry=_spec_registry(),
        admission=ADMISSION,
        mode="multiplex",
        multiplex_window=window,
    )
    service.shutdown()
    assert capture.mode == "multiplex"
    assert capture.payload()["mode"] == "multiplex"
    # One QoE entry per offered arrival, rejected ones included.
    assert len(capture.entries) == 24
    assert report.rejected_jobs > 0
    assert any(entry.outcome == "reject" for entry in capture.entries)
    replayed, _ = replay_capture(capture)
    assert replayed.mode == "multiplex"
    assert replays_identically(capture, replayed)

    # The periodic burst is window-replayed unless the capture disabled the
    # detector; replay must serve it with the captured window option.
    service = AIWorkflowService()
    capture, report = capture_trace(
        service,
        _burst_arrivals(),
        registry=default_registry(),
        mode="multiplex",
        multiplex_window=window,
    )
    service.shutdown()
    assert report.replayed_jobs == (30 if window is None else 0)
    assert ("multiplex_window" in capture.payload()) == (window is not None)
    loaded = TraceCapture.from_json(capture.to_json())
    assert loaded.multiplex_window == window
    replayed, replay_report = replay_capture(loaded)
    assert replay_report.replayed_jobs == report.replayed_jobs
    assert replays_identically(capture, replayed)


def test_grouped_capture_payload_has_no_mode_key():
    """Grouped captures must keep their pre-existing checksums: the mode
    key is emitted only for non-default modes."""
    service = AIWorkflowService()
    capture, _ = capture_trace(
        service, _overload_arrivals(8), registry=_spec_registry(), admission=ADMISSION
    )
    service.shutdown()
    assert capture.mode == "grouped"
    assert "mode" not in capture.payload()
