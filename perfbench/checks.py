"""Output checks run on every benchmark run.

Each check raises :class:`CheckFailed` with a reason; a run whose check fails
prints no metrics and exits non-zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.capture import payload_checksum


class CheckFailed(AssertionError):
    """A benchmark output disagrees with what the program must produce."""


def check_conservation(offered: int, completed: int, rejected: int, failed: int) -> None:
    """Every offered job is completed, rejected by admission, or failed."""
    if offered != completed + rejected + failed:
        raise CheckFailed(
            f"offered {offered} != completed {completed} + rejected {rejected} "
            f"+ failed {failed}"
        )


def check_report_conservation(report, offered: int) -> None:
    """A trace report accounts for every arrival, and its own counters agree:
    every completed job is either simulated or replayed and was recorded."""
    check_conservation(offered, report.jobs, report.rejected_jobs, report.failed_jobs)
    if report.simulated_jobs + report.replayed_jobs != report.jobs:
        raise CheckFailed(
            f"simulated {report.simulated_jobs} + replayed {report.replayed_jobs} "
            f"!= jobs {report.jobs}"
        )
    if report.throughput.completed != report.jobs:
        raise CheckFailed(
            f"throughput meter counted {report.throughput.completed} completions "
            f"for {report.jobs} jobs"
        )
    if report.quality.count != report.jobs:
        raise CheckFailed(
            f"quality aggregate holds {report.quality.count} samples for "
            f"{report.jobs} jobs"
        )


def check_same_digest(label: str, expected: str, actual: str) -> None:
    """Two servings of the same inputs produced the same canonical output."""
    if expected != actual:
        raise CheckFailed(f"{label}: output digest {actual[:12]} != {expected[:12]}")


def check_fidelity(report) -> None:
    """Poisson arrivals never form a steady window: nothing is replayed."""
    if report.replayed_jobs != 0:
        raise CheckFailed(f"fidelity replayed {report.replayed_jobs} jobs; expected 0")


def check_replay_fired(label: str, report) -> None:
    """A steady trace is mostly replayed, by at least one replay run."""
    if report.replayed_jobs <= 0 or report.replay_runs <= 0:
        raise CheckFailed(
            f"{label}: replay never fired (replayed {report.replayed_jobs}, "
            f"runs {report.replay_runs})"
        )


def aggregates(report, stats) -> Dict[str, object]:
    """The accounting a warm restart must reproduce exactly: the report's
    aggregates and job summaries plus the merged service stats."""
    return {
        "jobs": report.jobs,
        "makespan": report.makespan_s.summary(),
        "energy": report.energy_wh.summary(),
        "cost": report.cost.summary(),
        "quality": report.quality.summary(),
        "queue_delay": report.queue_delay_s.summary(),
        "throughput": [
            report.throughput.completed,
            report.throughput.first_start,
            report.throughput.last_finish,
        ],
        "latency_s": payload_checksum(report.latency_s),
        "job_summaries": report.job_summaries,
        "stats_totals": [
            stats.jobs_completed,
            stats.total_makespan_s,
            stats.total_energy_wh,
            stats.total_cost,
        ],
        "per_job": stats.per_job,
    }


def check_warm_generation(
    report, stats, sweeps: Iterable[int], cold_aggregates: Mapping[str, object]
) -> None:
    """A warm restart replays its recording: no probe simulation, no
    profiling sweep in any worker, and the cold generation's accounting."""
    if not report.warm_trace:
        raise CheckFailed("warm generation did not replay its warm-cache recording")
    if report.simulated_jobs != 0:
        raise CheckFailed(f"warm generation simulated {report.simulated_jobs} jobs")
    sweeps = list(sweeps)
    if not sweeps or any(sweeps):
        raise CheckFailed(f"warm generation worker profiling sweeps: {sweeps}")
    if payload_checksum(aggregates(report, stats)) != payload_checksum(dict(cold_aggregates)):
        raise CheckFailed("warm generation aggregates differ from the cold generation")
