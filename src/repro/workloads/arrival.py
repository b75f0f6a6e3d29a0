"""Arrival processes for multi-tenant and trace-driven serving experiments.

The paper's Figure 2 shows independent workflows (Workflow A and Workflow B)
multiplexed on shared resources.  These helpers generate deterministic
arrival schedules for such experiments: the classic Poisson and uniform
processes plus bursty (on/off) and diurnal (sinusoidally modulated) shapes
that stress a long-lived serving endpoint the way replayed production
traffic would.

All generators are deterministic under a fixed ``seed`` and produce strictly
monotonically non-decreasing timestamps, so a recorded trace can be replayed
bit-for-bit by ``AIWorkflowService.submit_trace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class JobArrival:
    """One job arrival: when it arrives and which workload template it uses.

    Slotted: a served trace holds one per arrival, hundreds of thousands on
    a long one, and a slotted arrival is about half the size.
    """

    arrival_time: float
    workload: str

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")


def _check_common(horizon_s: float, workloads: Sequence[str]) -> None:
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if not workloads:
        raise ValueError("workloads must be non-empty")


def poisson_arrivals(
    rate_per_s: float,
    horizon_s: float,
    workloads: Sequence[str] = ("video-understanding",),
    seed: int = 3,
) -> List[JobArrival]:
    """Poisson arrivals over ``[0, horizon_s)`` cycling through ``workloads``."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    _check_common(horizon_s, workloads)
    rng = np.random.default_rng(seed)
    arrivals: List[JobArrival] = []
    time = 0.0
    index = 0
    while True:
        time += float(rng.exponential(1.0 / rate_per_s))
        if time >= horizon_s:
            break
        arrivals.append(JobArrival(arrival_time=time, workload=workloads[index % len(workloads)]))
        index += 1
    return arrivals


def uniform_arrivals(
    count: int,
    interval_s: float,
    workloads: Sequence[str] = ("video-understanding",),
    start_time: float = 0.0,
) -> List[JobArrival]:
    """``count`` arrivals spaced ``interval_s`` apart, cycling workloads."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if interval_s < 0:
        raise ValueError("interval_s must be non-negative")
    return [
        JobArrival(arrival_time=start_time + i * interval_s, workload=workloads[i % len(workloads)])
        for i in range(count)
    ]


def bursty_arrivals(
    burst_rate_per_s: float,
    burst_duration_s: float,
    idle_duration_s: float,
    horizon_s: float,
    workloads: Sequence[str] = ("video-understanding",),
    seed: int = 3,
) -> List[JobArrival]:
    """On/off traffic: Poisson bursts separated by silent idle gaps.

    The horizon is tiled with ``burst_duration_s`` of Poisson traffic at
    ``burst_rate_per_s`` followed by ``idle_duration_s`` of silence — the
    flash-crowd shape that exercises admission queueing.
    """
    if burst_rate_per_s <= 0:
        raise ValueError("burst_rate_per_s must be positive")
    if burst_duration_s <= 0:
        raise ValueError("burst_duration_s must be positive")
    if idle_duration_s < 0:
        raise ValueError("idle_duration_s must be non-negative")
    _check_common(horizon_s, workloads)
    rng = np.random.default_rng(seed)
    arrivals: List[JobArrival] = []
    burst_start = 0.0
    index = 0
    while burst_start < horizon_s:
        burst_end = min(burst_start + burst_duration_s, horizon_s)
        time = burst_start
        while True:
            time += float(rng.exponential(1.0 / burst_rate_per_s))
            if time >= burst_end:
                break
            arrivals.append(
                JobArrival(arrival_time=time, workload=workloads[index % len(workloads)])
            )
            index += 1
        burst_start += burst_duration_s + idle_duration_s
    return arrivals


def diurnal_arrivals(
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    horizon_s: float,
    workloads: Sequence[str] = ("video-understanding",),
    seed: int = 3,
) -> List[JobArrival]:
    """Sinusoidally modulated Poisson arrivals (a compressed day/night cycle).

    The instantaneous rate swings between ``base_rate_per_s`` (trough) and
    ``peak_rate_per_s`` (crest) over each ``period_s``, sampled by thinning a
    homogeneous Poisson process at the peak rate — the standard
    non-homogeneous Poisson construction, so it stays exact and deterministic
    under a fixed seed.
    """
    if base_rate_per_s <= 0:
        raise ValueError("base_rate_per_s must be positive")
    if peak_rate_per_s < base_rate_per_s:
        raise ValueError("peak_rate_per_s must be >= base_rate_per_s")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    _check_common(horizon_s, workloads)
    rng = np.random.default_rng(seed)
    mid = (base_rate_per_s + peak_rate_per_s) / 2.0
    amplitude = (peak_rate_per_s - base_rate_per_s) / 2.0
    arrivals: List[JobArrival] = []
    time = 0.0
    index = 0
    while True:
        time += float(rng.exponential(1.0 / peak_rate_per_s))
        if time >= horizon_s:
            break
        # Thinning: accept with probability rate(t) / peak_rate.  The phase
        # puts the trough at t = 0 and the crest at t = period/2, so traffic
        # ramps up from quiet to peak over the first half-cycle.
        rate = mid + amplitude * math.sin(2.0 * math.pi * time / period_s - math.pi / 2.0)
        if float(rng.uniform()) * peak_rate_per_s <= rate:
            arrivals.append(
                JobArrival(arrival_time=time, workload=workloads[index % len(workloads)])
            )
            index += 1
    return arrivals


def merge_arrivals(*schedules: Sequence[JobArrival]) -> List[JobArrival]:
    """Merge independently generated schedules into one time-ordered trace.

    Ties preserve the argument order, so merging is deterministic.
    """
    merged: List[JobArrival] = [arrival for schedule in schedules for arrival in schedule]
    merged.sort(key=lambda arrival: arrival.arrival_time)
    return merged


def arrival_rate(arrivals: Sequence[JobArrival], horizon_s: float) -> float:
    """Observed mean arrival rate (jobs/s) of a schedule over a horizon."""
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    return len(arrivals) / horizon_s
