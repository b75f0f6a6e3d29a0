"""Capture/replay QoE harness: canonical-JSON determinism, checksum
integrity, registry round-trips, and byte-identical replays."""

from __future__ import annotations

import json

import pytest

from repro.admission import AdmissionConfig
from repro.capture import (
    CaptureError,
    QoEEntry,
    TraceCapture,
    canonical_json,
    capture_trace,
    diff_captures,
    replay_capture,
    replays_identically,
)
from repro.loadgen import WorkloadRegistry, default_registry
from repro.service import AIWorkflowService
from repro.workflows.newsfeed import newsfeed_spec
from repro.workloads.arrival import JobArrival

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


def _registry() -> WorkloadRegistry:
    base = newsfeed_spec()
    registry = WorkloadRegistry()
    registry.register_spec(base.with_overrides(priority="high"), name="feed-high")
    registry.register_spec(base.with_overrides(priority="low"), name="feed-low")
    return registry


def _arrivals(count=24, interval=1.1):
    return [
        JobArrival(
            arrival_time=i * interval,
            workload="feed-high" if i % 2 == 0 else "feed-low",
        )
        for i in range(count)
    ]


def _capture():
    service = AIWorkflowService()
    try:
        return capture_trace(
            service, _arrivals(), registry=_registry(), admission=ADMISSION
        )
    finally:
        service.shutdown()


# --------------------------------------------------------------------------- #
# Entry / envelope plumbing
# --------------------------------------------------------------------------- #


def test_qoe_entry_roundtrip():
    entry = QoEEntry(
        job_id="trace-00001",
        workload="feed-high",
        priority="high",
        outcome="admit",
        arrival_s=0.0,
        started_s=0.1,
        finished_s=3.5,
        queue_delay_s=0.1,
        makespan_s=3.4,
        latency_s=3.5,
        quality=0.85,
        deadline_s=14.0,
        slo_met=True,
    )
    assert QoEEntry.from_dict(entry.to_dict()) == entry
    with pytest.raises(CaptureError):
        QoEEntry.from_dict({**entry.to_dict(), "surprise": 1})


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
        {"a": [2, 3], "b": 1}
    )


# --------------------------------------------------------------------------- #
# Capture integrity
# --------------------------------------------------------------------------- #


def test_capture_records_every_arrival():
    capture, report = _capture()
    assert len(capture.entries) == 24
    outcomes = {entry.outcome for entry in capture.entries}
    assert "reject" in outcomes  # 3x overload must shed
    rejected = sum(1 for e in capture.entries if e.outcome == "reject")
    assert rejected == report.rejected_jobs
    assert capture.report["jobs"] == report.jobs
    # A shed job never counts as having met its SLO (explicitly False when
    # its spec declared a deadline, unknown otherwise); admitted entries
    # agree with the report's violation counter.
    assert all(e.slo_met is not True for e in capture.entries if e.outcome == "reject")
    violations = sum(
        1 for e in capture.entries if e.outcome != "reject" and e.slo_met is False
    )
    assert violations == report.summary()["slo_violations"]


def test_save_load_preserves_checksum(tmp_path):
    capture, _ = _capture()
    path = tmp_path / "capture.json"
    capture.save(path)
    loaded = TraceCapture.load(path)
    assert loaded.checksum() == capture.checksum()
    assert replays_identically(capture, loaded)
    assert diff_captures(capture, loaded) == []


def test_load_rejects_corruption(tmp_path):
    capture, _ = _capture()
    path = tmp_path / "capture.json"
    capture.save(path)
    envelope = json.loads(path.read_text())
    envelope["payload"]["report"]["jobs"] += 1  # tamper
    path.write_text(json.dumps(envelope))
    with pytest.raises(CaptureError):
        TraceCapture.load(path)
    envelope["payload"]["report"]["jobs"] -= 1
    envelope["schema"] = 99
    path.write_text(json.dumps(envelope))
    with pytest.raises(CaptureError):
        TraceCapture.load(path)


def test_csv_export(tmp_path):
    capture, _ = _capture()
    path = tmp_path / "qoe.csv"
    capture.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(capture.entries) + 1  # header + one row per job
    header = lines[0].split(",")
    assert "job_id" in header and "slo_met" in header


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #


def test_replay_is_byte_identical():
    capture, _ = _capture()
    first, _ = replay_capture(capture)
    second, _ = replay_capture(capture)
    assert replays_identically(capture, first)
    assert replays_identically(first, second)
    assert first.to_json() == capture.to_json()


def test_replay_restores_registry_and_admission():
    capture, _ = _capture()
    registry = capture.registry()
    assert sorted(registry.names()) == ["feed-high", "feed-low"]
    assert registry.spec("feed-high").priority == "high"
    assert capture.admission_config() == ADMISSION
    assert capture.job_arrivals() == _arrivals()


def test_divergence_is_detected():
    capture, _ = _capture()
    mutated = TraceCapture.from_payload(
        json.loads(canonical_json(capture.payload()))
    )
    mutated.entries[0] = QoEEntry.from_dict(
        {**mutated.entries[0].to_dict(), "quality": 0.123}
    )
    assert not replays_identically(capture, mutated)
    assert "entries" in diff_captures(capture, mutated)


def test_capture_without_admission_still_records():
    """The QoE collector composes with an uncontrolled service: every
    arrival is an admit and the capture still replays identically."""
    service = AIWorkflowService()
    try:
        capture, report = capture_trace(
            service, _arrivals(6, interval=5.0), registry=_registry()
        )
    finally:
        service.shutdown()
    assert capture.admission is None
    assert len(capture.entries) == 6
    assert {e.outcome for e in capture.entries} == {"admit"}
    replayed, _ = replay_capture(capture)
    assert replays_identically(capture, replayed)


def test_capture_on_a_warm_cache_serves_cold(tmp_path):
    """A capture's report must not depend on a warm cache: a run with a
    collector replays runs of arrivals as columns but never serves from (or
    writes) a warm trace recording, so a capture taken on a warm service
    replays identically on a cold one."""
    captures = []
    for _ in range(2):
        service = AIWorkflowService(warm_cache=tmp_path)
        try:
            capture, report = capture_trace(
                service, _arrivals(24, interval=5.0), registry=_registry()
            )
        finally:
            service.shutdown()
        assert not report.warm_trace and report.replayed_jobs > 0
        captures.append(capture)
    assert replays_identically(*captures)
    replayed, _ = replay_capture(captures[1])
    assert replays_identically(captures[1], replayed)


def test_capture_covers_every_default_workload():
    """Every servable workload is spec-registered, so a trace over all the
    shipped workloads captures and replays byte-identically."""
    registry = default_registry()
    arrivals = [
        JobArrival(arrival_time=i * 5.0, workload=name)
        for i, name in enumerate(registry.names())
    ]
    service = AIWorkflowService()
    try:
        capture, _ = capture_trace(service, arrivals, registry=registry)
    finally:
        service.shutdown()
    assert sorted(capture.registry().names()) == registry.names()
    assert [e.workload for e in capture.entries] == registry.names()
    replayed, _ = replay_capture(capture)
    assert replays_identically(capture, replayed)
