"""Replayed submissions against the reference oracle.

Serves one seeded 32-call interactive session three times, each time on a
fresh keep-warm client, once on the production runtime and once on
``unoptimized_runtime()``, which never replays a schedule.  Fails unless
the production side replayed some calls (``schedule_memo_info()``) and
every call's compact summary, trace intervals and outputs, and each
session's final allocation log, are equal on both sides.

Run from the repo root (``make replay-smoke`` sets ``PYTHONPATH``)::

    PYTHONPATH=src python scripts/replay_smoke.py
"""

from __future__ import annotations

import random
import sys

from repro.baselines.unoptimized import unoptimized_runtime
from repro.client import MurakkabClient
from repro.core.constraints import Constraint
from repro.core.runtime import MurakkabRuntime
from repro.core.schedule import schedule_memo_info
from repro.loadgen import default_registry

WORKFLOWS = ("video-understanding", "newsfeed", "document-qa", "chain-of-thought")
CONSTRAINTS = (None, "min_latency", "min_energy", "min_cost")
QUALITY_TARGETS = (None, 0.9)
SEED = 7
CALLS = 32
SESSIONS = 3


def session_calls():
    """32 calls drawn with replacement from every (workflow, constraint,
    quality target) combination, so contexts repeat within the session."""
    combinations = [
        (workflow, constraint, quality)
        for workflow in WORKFLOWS
        for constraint in CONSTRAINTS
        for quality in QUALITY_TARGETS
    ]
    return random.Random(SEED).choices(combinations, k=CALLS)


def serve(make_runtime, calls):
    """Every session's per-call records and final allocation log."""
    registry = default_registry()
    sessions = []
    for session in range(SESSIONS):
        with MurakkabClient(runtime=make_runtime(), registry=registry) as client:
            records = []
            for index, (workflow, constraint, quality) in enumerate(calls):
                result = client.submit(
                    workflow,
                    job_id=f"s{session}-call{index}",
                    constraints=Constraint(constraint) if constraint else None,
                    quality_target=quality,
                ).result
                records.append(
                    (
                        result.compact_summary(),
                        [(interval, interval.metadata) for interval in result.trace],
                        repr(result.output),
                    )
                )
            log = client.service.runtime.cluster_manager.allocation_events
        sessions.append((records, log))
    return sessions


def main() -> int:
    calls = session_calls()
    production = serve(MurakkabRuntime, calls)
    counts = schedule_memo_info()
    oracle = serve(unoptimized_runtime, calls)
    failures = []
    if counts["replayed"] == 0:
        failures.append(f"no call replayed its schedule: {counts}")
    if schedule_memo_info()["replayed"] != counts["replayed"]:
        failures.append("the reference oracle replayed a schedule")
    for session, ((records, log), (expected, expected_log)) in enumerate(
        zip(production, oracle)
    ):
        for index, (record, reference) in enumerate(zip(records, expected)):
            for part, got, want in zip(("summary", "trace", "outputs"), record, reference):
                if got != want:
                    failures.append(f"session {session} call {index}: {part} differs")
        if log != expected_log:
            failures.append(f"session {session}: final allocation log differs")
    for failure in failures:
        print(f"replay-smoke: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"replay-smoke: {SESSIONS} sessions x {CALLS} calls equal the oracle; "
        f"schedule memo {counts}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
