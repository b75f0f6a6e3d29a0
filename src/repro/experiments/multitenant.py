"""Multi-tenant multiplexing: Workflow A + Workflow B on shared resources.

Figure 2's motivation: independent workflows managed jointly can multiplex
resources that a rigid per-workflow deployment would strand.  This harness
compares running the Video Understanding workflow (A) and the newsfeed
workflow (B) back-to-back on dedicated deployments versus concurrently on a
shared cluster under the Murakkab runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.constraints import MIN_COST
from repro.core.multitenant import TenantSubmission, run_submissions
from repro.core.runtime import MurakkabRuntime
from repro.experiments.configs import paper_quality_target
from repro.telemetry.metrics import average_utilization
from repro.workflows.newsfeed import newsfeed_job
from repro.workflows.video_understanding import video_understanding_job
from repro.workloads.video import SyntheticVideo, paper_videos


@dataclass
class MultiTenantComparison:
    """Serial-dedicated vs multiplexed execution of Workflows A and B."""

    serial_total_time_s: float
    serial_total_energy_wh: float
    multiplexed_batch_time_s: float
    multiplexed_total_energy_wh: float
    multiplexed_mean_gpu_utilization: float
    serial_mean_gpu_utilization: float

    @property
    def time_saving_fraction(self) -> float:
        if self.serial_total_time_s <= 0:
            return 0.0
        return 1.0 - self.multiplexed_batch_time_s / self.serial_total_time_s

    def render(self) -> str:
        return (
            f"serial (dedicated): {self.serial_total_time_s:.1f}s, "
            f"{self.serial_total_energy_wh:.1f} Wh, "
            f"GPU util {100 * self.serial_mean_gpu_utilization:.1f}%\n"
            f"multiplexed (Murakkab): {self.multiplexed_batch_time_s:.1f}s, "
            f"{self.multiplexed_total_energy_wh:.1f} Wh, "
            f"GPU util {100 * self.multiplexed_mean_gpu_utilization:.1f}%\n"
            f"batch completes {100 * self.time_saving_fraction:.1f}% sooner when multiplexed"
        )


def _jobs(videos: Sequence[SyntheticVideo], suffix: str):
    video_job = video_understanding_job(
        videos=list(videos),
        constraints=MIN_COST,
        quality_target=paper_quality_target(),
        job_id=f"tenant-a-{suffix}",
    )
    feed_job = newsfeed_job(job_id=f"tenant-b-{suffix}")
    return video_job, feed_job


def run_multitenant(
    videos: Optional[Sequence[SyntheticVideo]] = None,
    newsfeed_arrival_s: float = 5.0,
) -> MultiTenantComparison:
    """Compare serial-dedicated and multiplexed execution of the two tenants."""
    videos = list(videos) if videos is not None else paper_videos()
    total_gpus = 0

    # Serial, dedicated: each workflow gets the cluster to itself in turn.
    serial_time = 0.0
    serial_energy = 0.0
    serial_busy_gpu_seconds = 0.0
    for index, job in enumerate(_jobs(videos, "serial")):
        runtime = MurakkabRuntime()
        result = runtime.submit(job)
        serial_time += result.makespan_s
        serial_energy += result.energy_wh
        serial_busy_gpu_seconds += result.trace.busy_gpu_seconds()
        total_gpus = runtime.cluster.total_gpus
    serial_utilization = (
        serial_busy_gpu_seconds / (total_gpus * serial_time) if serial_time else 0.0
    )

    # Multiplexed: both tenants share one cluster and serving-instance pool.
    video_job, feed_job = _jobs(videos, "shared")
    runtime = MurakkabRuntime()
    report = run_submissions(
        runtime,
        [
            TenantSubmission(arrival_time=0.0, job=video_job),
            TenantSubmission(arrival_time=newsfeed_arrival_s, job=feed_job),
        ]
    )
    multiplexed_utilization = average_utilization(
        report.merged_trace, total_gpus=runtime.cluster.total_gpus, window=report.batch_makespan_s
    )
    return MultiTenantComparison(
        serial_total_time_s=serial_time,
        serial_total_energy_wh=serial_energy,
        multiplexed_batch_time_s=report.batch_makespan_s,
        multiplexed_total_energy_wh=report.total_energy_wh,
        multiplexed_mean_gpu_utilization=multiplexed_utilization,
        serial_mean_gpu_utilization=min(1.0, serial_utilization),
    )
