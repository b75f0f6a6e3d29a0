"""Checksummed capture/replay of serving traces and their QoE outcomes.

The overload story is only credible if it is reproducible: a trace served
under admission control (:mod:`repro.admission`) must replay *bit-exact* —
same shed decisions, same per-job QoE, same merged :class:`TraceReport` —
on another machine or another day.  This module records everything that
replay needs into one self-validating file:

- the **arrival schedule** (trace-relative timestamps + workload names),
- the **workflow specs** behind every workload (serialized IR, so replay
  does not depend on the local registry being configured identically),
- the **admission config** and **policy bundle name** in force,
- one **QoE entry per arrival** — including rejected ones — with
  trace-relative timings, and
- the report's :meth:`~repro.loadgen.TraceReport.canonical_dict`.

The file format is a two-key envelope ``{"schema", "checksum", "payload"}``
where ``checksum`` is the SHA-256 of the payload's canonical JSON (sorted
keys, no whitespace).  :meth:`TraceCapture.load` refuses silently corrupted
or truncated files.  Because both capture and replay serialize through the
same canonical form, *replayed identically* reduces to a checksum equality
(:func:`replays_identically`) — the property the overload CI gauntlet
asserts across Python versions.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission import AdmissionConfig, admission_of
from repro.loadgen import (
    ServiceLoadGenerator,
    TraceReport,
    WorkloadRegistry,
)
from repro.workloads.arrival import JobArrival

#: Envelope schema version; bumped only on incompatible payload changes.
SCHEMA_VERSION = 1

#: Column order for QoE entries — also the CSV header.
QOE_FIELDS = (
    "job_id",
    "workload",
    "priority",
    "outcome",
    "arrival_s",
    "started_s",
    "finished_s",
    "queue_delay_s",
    "makespan_s",
    "latency_s",
    "quality",
    "deadline_s",
    "slo_met",
)


class CaptureError(RuntimeError):
    """A capture file failed validation (schema, checksum, or content)."""


def canonical_json(payload: object) -> str:
    """Canonical JSON text: sorted keys, minimal separators, ASCII-safe.

    Both the checksum and the replay byte-diff are computed over this form,
    so any two payloads with equal content serialize to equal bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: object) -> str:
    """SHA-256 hex digest of the payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# QoE entries
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class QoEEntry:
    """Per-arrival quality-of-experience record.

    Timings are trace-relative seconds (the serving epoch is already
    subtracted), so entries captured against a warm, long-lived service
    equal those from a cold one.  Rejected and failed arrivals keep
    ``None`` timing fields; their ``outcome`` says why they never ran.
    """

    job_id: str
    workload: str
    priority: str
    outcome: str
    arrival_s: float
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    queue_delay_s: Optional[float] = None
    makespan_s: Optional[float] = None
    latency_s: Optional[float] = None
    quality: Optional[float] = None
    deadline_s: Optional[float] = None
    slo_met: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in QOE_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QoEEntry":
        unknown = set(payload) - set(QOE_FIELDS)
        if unknown:
            raise CaptureError(f"unknown QoE fields: {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]


# --------------------------------------------------------------------- #
# The capture container
# --------------------------------------------------------------------- #


@dataclass
class TraceCapture:
    """Everything needed to replay a served trace and verify its QoE."""

    #: ``(arrival_time, workload)`` pairs in submission order.
    arrivals: List[Tuple[float, str]] = field(default_factory=list)
    #: Workload name -> serialized :class:`~repro.spec.ir.WorkflowSpec`.
    specs: Dict[str, dict] = field(default_factory=dict)
    #: Serialized :class:`~repro.admission.AdmissionConfig`, or ``None``
    #: when the trace was served without admission control.
    admission: Optional[dict] = None
    #: Policy-bundle name in force, or ``None`` for stock behaviour.
    policy: Optional[str] = None
    #: One entry per arrival, rejected arrivals included.
    entries: List[QoEEntry] = field(default_factory=list)
    #: The report's canonical dict (wall-clock-free, deterministic).
    report: Dict[str, object] = field(default_factory=dict)
    #: Serving mode the trace was captured under.
    mode: str = "grouped"
    #: The ``multiplex_window`` option the trace was served with.
    multiplex_window: Optional[int] = None

    # ----------------------------------------------------------------- #
    # Serialization
    # ----------------------------------------------------------------- #
    def payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "arrivals": [[time, workload] for time, workload in self.arrivals],
            "specs": self.specs,
            "admission": self.admission,
            "policy": self.policy,
            "entries": [entry.to_dict() for entry in self.entries],
            "report": self.report,
        }
        if self.mode != "grouped":
            # Emitted only for non-default modes so grouped captures keep
            # their pre-existing checksums (and stay loadable by older
            # readers of the same schema version).
            payload["mode"] = self.mode
        if self.multiplex_window is not None:
            # Same rule: emitted only when set, so existing checksums hold.
            payload["multiplex_window"] = self.multiplex_window
        return payload

    def checksum(self) -> str:
        return payload_checksum(self.payload())

    def to_json(self) -> str:
        """The full envelope as canonical JSON (deterministic bytes)."""
        payload = self.payload()
        return canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "checksum": payload_checksum(payload),
                "payload": payload,
            }
        )

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TraceCapture":
        try:
            arrivals = [
                (float(time), str(workload))
                for time, workload in payload["arrivals"]  # type: ignore[index]
            ]
            entries = [
                QoEEntry.from_dict(entry)
                for entry in payload["entries"]  # type: ignore[index]
            ]
            return cls(
                arrivals=arrivals,
                specs=dict(payload["specs"]),  # type: ignore[arg-type]
                admission=payload.get("admission"),  # type: ignore[union-attr]
                policy=payload.get("policy"),  # type: ignore[union-attr]
                entries=entries,
                report=dict(payload["report"]),  # type: ignore[arg-type]
                mode=str(payload.get("mode", "grouped")),  # type: ignore[union-attr]
                multiplex_window=payload.get(  # type: ignore[union-attr]
                    "multiplex_window"
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CaptureError(f"malformed capture payload: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "TraceCapture":
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as error:
            raise CaptureError(f"capture is not valid JSON: {error}") from error
        if not isinstance(envelope, dict):
            raise CaptureError("capture envelope must be a JSON object")
        schema = envelope.get("schema")
        if schema != SCHEMA_VERSION:
            raise CaptureError(
                f"unsupported capture schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        payload = envelope.get("payload")
        recorded = envelope.get("checksum")
        if payload is None or recorded is None:
            raise CaptureError("capture envelope is missing payload/checksum")
        actual = payload_checksum(payload)
        if actual != recorded:
            raise CaptureError(
                "capture checksum mismatch: file is corrupted or was edited "
                f"(recorded {recorded[:12]}..., actual {actual[:12]}...)"
            )
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str) -> "TraceCapture":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_csv(self, path: str) -> str:
        """Flatten the QoE entries into a spreadsheet-friendly CSV."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(QOE_FIELDS))
            writer.writeheader()
            for entry in self.entries:
                writer.writerow(entry.to_dict())
        return path

    # ----------------------------------------------------------------- #
    # Replay inputs
    # ----------------------------------------------------------------- #
    def job_arrivals(self) -> List[JobArrival]:
        return [
            JobArrival(arrival_time=time, workload=workload)
            for time, workload in self.arrivals
        ]

    def registry(self) -> WorkloadRegistry:
        """A registry rebuilt from the embedded specs — replay does not
        depend on the local default registry matching the capture-time one."""
        from repro.spec.ir import WorkflowSpec

        registry = WorkloadRegistry()
        for name in sorted(self.specs):
            spec = WorkflowSpec.from_dict(self.specs[name])
            registry.register_spec(spec, name=name)
        return registry

    def admission_config(self) -> Optional[AdmissionConfig]:
        if self.admission is None:
            return None
        return AdmissionConfig.from_dict(self.admission)


# --------------------------------------------------------------------- #
# Capture and replay entry points
# --------------------------------------------------------------------- #


def capture_trace(
    service,
    arrivals: Sequence[JobArrival],
    registry: Optional[WorkloadRegistry] = None,
    admission=None,
    mode: str = "grouped",
    **options,
) -> Tuple[TraceCapture, TraceReport]:
    """Serve ``arrivals`` on ``service`` and record a replayable capture.

    Returns ``(capture, report)``.  ``admission`` defaults to the service's
    installed config (mirroring :meth:`ServiceLoadGenerator.run`); every
    workload in the trace must be spec-registered, because the capture
    embeds the serialized specs for environment-independent replay.
    ``mode`` selects the serving path (``"grouped"`` or ``"multiplex"``);
    it is recorded in the capture, with the ``multiplex_window`` option, so
    replay serves the same way.
    """
    from repro.loadgen import default_registry

    if mode not in ("grouped", "multiplex"):
        raise CaptureError(
            f"unknown capture mode {mode!r}; expected 'grouped' or 'multiplex'"
        )
    if registry is None:
        registry = default_registry()
    config = admission_of(
        admission if admission is not None else getattr(service, "admission", None)
    )
    workloads = sorted({arrival.workload for arrival in arrivals})
    specs: Dict[str, dict] = {}
    for workload in workloads:
        spec = registry.spec(workload)
        if spec is None:
            raise CaptureError(
                f"workload {workload!r} is factory-registered; captures "
                "require spec-registered workloads (register_spec) so the "
                "capture can embed a replayable definition"
            )
        specs[workload] = spec.to_dict()

    entries: List[QoEEntry] = []
    generator = ServiceLoadGenerator(service)
    report = generator.run(
        arrivals,
        registry=registry,
        mode=mode,
        admission=config,
        collector=lambda record: entries.append(QoEEntry.from_dict(record)),
        **options,
    )
    bundle = getattr(service, "policy", None)
    capture = TraceCapture(
        arrivals=[(arrival.arrival_time, arrival.workload) for arrival in arrivals],
        specs=specs,
        admission=config.to_dict() if config is not None else None,
        policy=bundle.name if bundle is not None else None,
        entries=entries,
        report=report.canonical_dict(),
        mode=mode,
        multiplex_window=options.get("multiplex_window"),
    )
    return capture, report


def replay_capture(
    capture: TraceCapture,
    service=None,
    **options,
) -> Tuple[TraceCapture, TraceReport]:
    """Re-serve a capture's trace and re-capture it for comparison.

    When ``service`` is omitted a fresh :class:`~repro.service.AIWorkflowService`
    is built with the capture's policy bundle, so replay starts from the
    same cold state capture did.  Returns ``(replayed_capture, report)`` —
    compare with :func:`replays_identically`.
    """
    if service is None:
        from repro.service import AIWorkflowService

        service = AIWorkflowService(policy=capture.policy)
    options.setdefault("multiplex_window", capture.multiplex_window)
    return capture_trace(
        service,
        capture.job_arrivals(),
        registry=capture.registry(),
        admission=capture.admission_config(),
        mode=capture.mode,
        **options,
    )


def replays_identically(original: TraceCapture, replayed: TraceCapture) -> bool:
    """True when the two captures are byte-identical in canonical form."""
    return original.checksum() == replayed.checksum()


def diff_captures(original: TraceCapture, replayed: TraceCapture) -> List[str]:
    """Human-readable list of top-level payload sections that differ."""
    differences: List[str] = []
    left, right = original.payload(), replayed.payload()
    for key in sorted(set(left) | set(right)):
        if canonical_json(left.get(key)) != canonical_json(right.get(key)):
            differences.append(key)
    return differences
