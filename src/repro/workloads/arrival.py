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

A served trace travels as :class:`ArrivalColumns`: the arrival times as one
float64 array, the workloads as integer codes into a tuple of names.  The
serving entry points convert a :class:`JobArrival` sequence once, at their
boundary; everything behind it (admission order, shard partitioning, the
shard process payload, the warm-cache key) works on the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

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
        # One chained comparison rejects negative, NaN and infinite times.
        if not 0.0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time!r}"
            )


class ArrivalColumns:
    """A whole arrival trace as columns, validated once.

    ``times`` is a float64 array of trace-relative arrival times, ``codes``
    an unsigned integer array (the smallest dtype that holds every code,
    see :func:`index_dtype`) giving each arrival's workload as an index into
    ``names``, a tuple of distinct workload names.  Every time is finite and
    non-negative.  The arrays are not copied when they already have the
    right dtype; treat them as read-only.  Compact codes keep a trace small
    where it is copied: into shard sub-traces and across the shard process
    boundary.

    Per-arrival Python loops read the columns through ``.tolist()`` so no
    numpy scalar reaches a job id, a report field or a recording.
    """

    __slots__ = ("times", "codes", "names")

    def __init__(self, times, codes, names: Sequence[str]) -> None:
        times = np.ascontiguousarray(times, dtype=np.float64)
        codes = np.asarray(codes)
        names = tuple(names)
        if times.ndim != 1 or codes.shape != times.shape:
            raise ValueError("times and codes must be 1-d arrays of one length")
        if times.size and not (times.min() >= 0.0 and times.max() < math.inf):
            raise ValueError("arrival times must be finite and non-negative")
        if len(set(names)) != len(names) or not all(isinstance(n, str) for n in names):
            raise ValueError("names must be distinct workload names")
        if codes.size and (
            codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(names)
        ):
            raise ValueError("every code must be an integer that indexes names")
        self.times = times
        self.codes = np.ascontiguousarray(codes, dtype=index_dtype(len(names)))
        self.names: Tuple[str, ...] = names

    @classmethod
    def from_arrivals(cls, arrivals: Sequence[JobArrival]) -> "ArrivalColumns":
        """The columns of a :class:`JobArrival` sequence; names are numbered
        in order of first appearance."""
        code_of: dict = {}
        n = len(arrivals)
        codes = np.fromiter(
            (code_of.setdefault(arrival.workload, len(code_of)) for arrival in arrivals),
            dtype=np.intp,
            count=n,
        )
        times = np.fromiter(
            (arrival.arrival_time for arrival in arrivals), dtype=np.float64, count=n
        )
        return cls(times, codes, code_of)

    @classmethod
    def of(cls, arrivals: Union["ArrivalColumns", Sequence[JobArrival]]) -> "ArrivalColumns":
        """``arrivals`` as columns: itself when it already is."""
        if isinstance(arrivals, cls):
            return arrivals
        return cls.from_arrivals(arrivals)

    def __len__(self) -> int:
        return len(self.times)

    def admission_order(self) -> np.ndarray:
        """Trace indices by arrival time, ties in trace order: the stable
        sort on time, which is the (time, index) order."""
        return np.argsort(self.times, kind="stable")

    def take(self, indices) -> "ArrivalColumns":
        """The sub-trace at ``indices`` (in their order), naming only the
        workloads it holds, in their order in :attr:`names`."""
        codes = self.codes[indices]
        present = np.flatnonzero(np.bincount(codes, minlength=len(self.names)))
        remap = np.zeros(len(self.names), dtype=codes.dtype)
        remap[present] = np.arange(len(present))
        names = self.names
        return ArrivalColumns(
            self.times[indices], remap[codes], [names[code] for code in present.tolist()]
        )


def index_dtype(count: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds every index below
    ``count``."""
    return np.min_scalar_type(max(count - 1, 0))


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
