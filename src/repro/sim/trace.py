"""Execution traces.

A trace is the simulated analogue of the timelines in the paper's Figure 3:
a list of intervals, each recording which task ran, on which node/devices,
over which window, and at what device utilisation.  Telemetry code renders
Gantt rows and utilisation curves from it; the energy model integrates power
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class TraceInterval:
    """One task execution interval on a set of resources.

    Treat an interval as a value: traces share interval objects (a merged
    trace holds its executors' intervals), so nothing may mutate one after
    it is recorded.  It is not ``frozen`` because a frozen ``__init__`` sets
    every field through ``object.__setattr__``, about three times the cost
    of this one, and every executed task records an interval.
    """

    task_id: str
    task_name: str
    category: str
    start: float
    end: float
    node_id: str = ""
    gpu_ids: Tuple[str, ...] = ()
    cpu_cores: int = 0
    gpu_utilization: float = 1.0
    cpu_utilization: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end ({self.end}) before start ({self.start}) "
                f"for task {self.task_id!r}"
            )
        if not 0.0 <= self.gpu_utilization <= 1.0:
            raise ValueError(f"gpu_utilization must be in [0, 1]: {self.gpu_utilization}")
        if not 0.0 <= self.cpu_utilization <= 1.0:
            raise ValueError(f"cpu_utilization must be in [0, 1]: {self.cpu_utilization}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def gpu_count(self) -> int:
        return len(self.gpu_ids)

    def overlaps(self, start: float, end: float) -> float:
        """Length of the overlap between this interval and ``[start, end]``."""
        return max(0.0, min(self.end, end) - max(self.start, start))


class ExecutionTrace:
    """An append-only collection of :class:`TraceInterval` objects."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._intervals: List[TraceInterval] = []

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    @property
    def intervals(self) -> Sequence[TraceInterval]:
        return tuple(self._intervals)

    def record(self, interval: TraceInterval) -> TraceInterval:
        """Append an interval to the trace."""
        self._intervals.append(interval)
        return interval

    def add(
        self,
        task_id: str,
        task_name: str,
        category: str,
        start: float,
        end: float,
        **kwargs,
    ) -> TraceInterval:
        """Convenience wrapper that constructs and records an interval."""
        interval = TraceInterval(
            task_id=task_id,
            task_name=task_name,
            category=category,
            start=start,
            end=end,
            **kwargs,
        )
        return self.record(interval)

    def extend(self, intervals: Iterable[TraceInterval]) -> None:
        for interval in intervals:
            self.record(interval)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def makespan(self) -> float:
        """End-to-end completion time (max end minus min start)."""
        if not self._intervals:
            return 0.0
        start = min(i.start for i in self._intervals)
        end = max(i.end for i in self._intervals)
        return end - start

    def start_time(self) -> float:
        if not self._intervals:
            return 0.0
        return min(i.start for i in self._intervals)

    def end_time(self) -> float:
        if not self._intervals:
            return 0.0
        return max(i.end for i in self._intervals)

    def categories(self) -> List[str]:
        """Distinct categories in first-appearance order."""
        seen: List[str] = []
        for interval in self._intervals:
            if interval.category not in seen:
                seen.append(interval.category)
        return seen

    def by_category(self, category: str) -> List[TraceInterval]:
        return [i for i in self._intervals if i.category == category]

    def by_task(self, task_id: str) -> List[TraceInterval]:
        return [i for i in self._intervals if i.task_id == task_id]

    def busy_gpu_seconds(self) -> float:
        """Sum over intervals of (GPU count x duration x utilisation)."""
        return sum(i.gpu_count * i.duration * i.gpu_utilization for i in self._intervals)

    def busy_cpu_core_seconds(self) -> float:
        """Sum over intervals of (CPU cores x duration x utilisation)."""
        return sum(i.cpu_cores * i.duration * i.cpu_utilization for i in self._intervals)

    def gantt_rows(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per-category list of (start, end) bars — the upper panels of Fig. 3."""
        rows: Dict[str, List[Tuple[float, float]]] = {}
        for interval in self._intervals:
            rows.setdefault(interval.category, []).append((interval.start, interval.end))
        for bars in rows.values():
            bars.sort()
        return rows

    def merge(self, other: "ExecutionTrace", label: Optional[str] = None) -> "ExecutionTrace":
        """Return a new trace containing intervals from both traces."""
        merged = ExecutionTrace(label or self.label)
        merged.extend(self._intervals)
        merged.extend(other.intervals)
        return merged

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(label={self.label!r}, intervals={len(self._intervals)}, "
            f"makespan={self.makespan():.2f}s)"
        )
