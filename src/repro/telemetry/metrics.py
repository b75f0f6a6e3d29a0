"""Headline metrics: speedup, energy-efficiency gain, utilisation, and
streaming aggregates for long trace-driven runs.

The scalar helpers are defensive: empty inputs and zero values come up
naturally on degenerate runs (an empty trace, a zero-quality stage) and are
answered with ``0.0`` instead of an exception, so a long-lived service's
telemetry loop never dies on an edge case.  Genuinely malformed inputs
(negative durations, negative values) still raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as _np

from repro.sim.trace import ExecutionTrace

#: Below this many values the numpy call overhead exceeds the loop cost.
_NUMPY_MIN_BATCH = 32


def round_sig(value: float, digits: int = 12) -> float:
    """Round ``value`` to ``digits`` significant digits.

    The convergence/steady-window detectors compare metrics at 12
    significant digits: identical executions at different absolute engine
    times accumulate ~1e-15 relative floating-point jitter in interval
    arithmetic, which must not block a match.
    """
    return float(f"{value:.{digits}g}")


def result_digest(result) -> tuple:
    """What makes two served results "the same" for replay.

    The plan text, the four accounted metrics at 12 significant digits
    (:func:`round_sig`), and the provisioned GPUs of a
    :class:`~repro.core.job.JobResult`.  The grouped steady-state memo and
    the multiplex steady-window detector both confirm a repeat on it.
    """
    plan = result.plan
    return (
        plan.describe() if plan is not None else None,
        round_sig(result.makespan_s),
        round_sig(result.energy_wh),
        round_sig(result.cost),
        round_sig(result.quality),
        result.provisioned_gpus,
    )


def sequential_sum(start: float, values: Sequence[float]) -> float:
    """``start + v0 + v1 + ...`` with strict left-to-right IEEE-754 order.

    This is *not* ``math.fsum`` or ``numpy.sum`` (both reorder additions):
    batched trace accounting must land on the byte-identical total a
    one-value-at-a-time loop produces, so the accumulation order is pinned.
    ``numpy.cumsum`` performs the same left-to-right accumulation in C and
    is used for large batches.  Either way the total is a Python float when
    ``start`` is, also for array ``values``.
    """
    n = len(values)
    if n >= _NUMPY_MIN_BATCH:
        chain = _np.empty(n + 1, dtype=_np.float64)
        chain[0] = start
        chain[1:] = values
        return float(_np.cumsum(chain)[-1])
    if isinstance(values, _np.ndarray):
        values = values.tolist()
    total = start
    for value in values:
        total += value
    return total


def speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    """How many times faster the optimised run is (the paper's ~3.4x)."""
    if optimized_seconds <= 0:
        raise ValueError("optimized_seconds must be positive")
    if baseline_seconds < 0:
        raise ValueError("baseline_seconds must be non-negative")
    return baseline_seconds / optimized_seconds


def energy_efficiency_gain(baseline_wh: float, optimized_wh: float) -> float:
    """How many times more energy efficient the optimised run is (~4.5x)."""
    if optimized_wh <= 0:
        raise ValueError("optimized_wh must be positive")
    if baseline_wh < 0:
        raise ValueError("baseline_wh must be non-negative")
    return baseline_wh / optimized_wh


def average_utilization(
    trace: ExecutionTrace, total_gpus: int, window: float = 0.0
) -> float:
    """Mean GPU utilisation fraction over the trace span (0..1).

    Degenerate inputs — no GPUs, an empty trace, a zero-length window —
    yield ``0.0`` rather than raising, so telemetry over an idle service
    stays total.  A negative window is malformed and raises.
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    if total_gpus <= 0 or len(trace) == 0:
        return 0.0
    span = window or trace.makespan()
    if span <= 0:
        return 0.0
    return min(1.0, trace.busy_gpu_seconds() / (total_gpus * span))


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, used when aggregating per-workflow speedups.

    An empty sequence yields ``0.0`` (there is nothing to aggregate), and any
    zero value collapses the mean to ``0.0`` — the mathematical limit —
    instead of raising.  Negative values are malformed and raise.
    """
    values = list(values)
    if not values:
        return 0.0
    log_sum = 0.0
    for value in values:
        if value < 0:
            raise ValueError("geometric_mean requires non-negative values")
        if value == 0:
            return 0.0
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def evict_oldest(mapping: Dict, cap: Optional[int]) -> int:
    """Delete insertion-oldest entries of ``mapping`` beyond ``cap``.

    The shared primitive behind every bounded rolling-detail store (service
    per-job records, trace-report summaries).  ``cap=None`` means unbounded.
    Returns how many entries were evicted.
    """
    if cap is None:
        return 0
    evicted = 0
    while len(mapping) > cap:
        # Dicts preserve insertion order, so the first key is the oldest.
        del mapping[next(iter(mapping))]
        evicted += 1
    return evicted


@dataclass
class StreamingAggregate:
    """Exact count/total/min/max/mean over a stream of values in O(1) memory.

    A 10k-job trace run folds every per-job metric (makespan, energy, cost,
    quality) into one of these instead of accumulating per-job dicts, so
    service-level accounting stays bounded no matter how long the service
    lives.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_sequence(self, values: Sequence[float]) -> None:
        """Byte-identical to calling :meth:`add` for each value in order."""
        n = len(values)
        if not n:
            return
        self.count += n
        self.total = sequential_sum(self.total, values)
        if isinstance(values, _np.ndarray):
            lo, hi = float(values.min()), float(values.max())
        else:
            lo, hi = float(min(values)), float(max(values))
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def merge(self, other: "StreamingAggregate") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class ThroughputMeter:
    """Jobs/sec over a run, tracked incrementally as completions stream in."""

    completed: int = 0
    first_start: float = math.inf
    last_finish: float = -math.inf

    def record(self, started_at: float, finished_at: float) -> None:
        self.completed += 1
        if started_at < self.first_start:
            self.first_start = started_at
        if finished_at > self.last_finish:
            self.last_finish = finished_at

    def merge(self, other: "ThroughputMeter") -> None:
        """Fold another meter in: the merged span covers both runs.

        Counts add and the span extrema take the min/max, so merging is
        associative and order-insensitive — the property shard-merged trace
        reports rely on.
        """
        self.completed += other.completed
        if other.first_start < self.first_start:
            self.first_start = other.first_start
        if other.last_finish > self.last_finish:
            self.last_finish = other.last_finish

    @property
    def span_s(self) -> float:
        if not self.completed:
            return 0.0
        return max(0.0, self.last_finish - self.first_start)

    @property
    def jobs_per_second(self) -> float:
        span = self.span_s
        return self.completed / span if span > 0 else 0.0
