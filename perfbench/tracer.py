"""Wall-clock spans around the public functions of each serving layer.

The benchmark adds no instrumentation inside ``src/``: a :class:`Tracer`
replaces selected public functions and methods with thin wrappers for the
duration of a traced pass and restores the originals afterwards.  Every call
becomes one span ``(name, start, end, parent)`` kept in memory; at the end
the spans are folded into per-layer call counts and self times (a span's
duration minus the durations of its direct children) and written out as
Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The wrapped targets: (layer, module, class or None, attribute).  A layer is
#: named after the module that owns the code.  Module-level functions are
#: patched in every ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("spec", "repro.spec.compiler", None, "compile_spec"),
    ("core.runtime", "repro.core.runtime", "MurakkabRuntime", "submit"),
    ("core.orchestrator", "repro.core.orchestrator", "WorkflowOrchestrator", "prepare"),
    ("core.planner", "repro.core.planner", "ConfigurationPlanner", "plan"),
    ("core.execution", "repro.core.execution", "WorkflowExecutor", "start"),
    ("core.execution", "repro.core.execution", "WorkflowExecutor", "execute"),
    ("sim.engine", "repro.sim.engine", "SimulationEngine", "run"),
    ("cluster", "repro.cluster.manager", "ClusterManager", "allocate"),
    ("cluster", "repro.cluster.manager", "ClusterManager", "deploy_model"),
    ("admission", "repro.admission", "AdmissionController", "decide"),
    ("fabric", "repro.fabric", "FabricTopology", "route"),
    ("loadgen", "repro.loadgen", "ServiceLoadGenerator", "run"),
    ("warmstate", "repro.warmstate", "WarmStateCache", "load"),
    ("warmstate", "repro.warmstate", "WarmStateCache", "store"),
    ("sharding", "repro.sharding", "ShardedService", "submit_trace"),
    ("sharding", "repro.sharding", "ShardedService", "shutdown"),
    ("sharding", "repro.loadgen", "TraceReport", "merged"),
)

#: Every layer the table reports, in print order (``other`` last).
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in TARGETS)) + ("other",)

#: Layers whose self time is reported per wrapped operation
#: (``<layer>.<op>_s``) instead of as one ``<layer>.self_s``.
PER_OPERATION = ("warmstate", "sharding")

#: The self-time metrics that partition the traced wall, in print order.
SELF_TIMES = tuple(
    dict.fromkeys(
        f"{layer}.{attr}_s" if layer in PER_OPERATION else f"{layer}.self_s"
        for layer, _, _, attr in TARGETS
    )
) + ("other.self_s",)

#: The span name given to each unit of benchmark work; its self time is the
#: ``other`` layer (glue code outside every wrapped function).
ROOT = "bench:unit"


class Tracer:
    """In-memory span recorder that wraps layer entry points while active."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` per call, in call order.
        self.spans: List[list] = []
        #: ``"<layer>:<attr>:<outcome>"`` -> count, filled by the wrappers:
        #: calls that raised, failed allocations, admission decisions.
        self.tallies: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def call(self, name: str, fn: Callable, args, kwargs, observe=None):
        spans = self.spans
        stack = self._stack
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(index)
        clock = time.perf_counter
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[2] = clock()
            stack.pop()
            self.tallies[name + ":raised"] += 1
            raise
        span[2] = clock()
        stack.pop()
        if observe is not None:
            observe(self.tallies, name, result)
        return result

    def unit(self, fn: Callable, *args, **kwargs):
        """Run one unit of benchmark work under the root span."""
        return self.call(ROOT, fn, args, kwargs)

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        for layer, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}:{attr}"
            observe = _OBSERVERS.get(name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrapper(name, original.__func__, observe))
                else:
                    wrapper = self._wrapper(name, original, observe)
                self._patch(owner, attr, original, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original, observe)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "repro":
                    continue
                if other.__dict__.get(attr) is original:
                    self._patch(other, attr, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name, original, observe):
        call = self.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs, observe)

        return wrapper

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Folding and export
    # ------------------------------------------------------------------ #
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` and ``self_s``, plus ``<op>_calls`` and
        ``<op>_s`` for each wrapped operation.  ``other`` is the root spans'
        self time, so the layers' self times sum to the root spans' wall."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
        }
        for index, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            if name == ROOT:
                totals["other"]["self_s"] += own
                continue
            layer, op = name.split(":", 1)
            record = totals[layer]
            record["calls"] += 1
            record["self_s"] += own
            record[op + "_calls"] = record.get(op + "_calls", 0) + 1
            record[op + "_s"] = record.get(op + "_s", 0.0) + own
        return totals

    def root_wall(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == ROOT)

    def chrome_events(self, pid: int = 1) -> List[dict]:
        """The spans as Chrome trace-event ``X`` (complete) events.  Times
        are microseconds of the monotonic clock ``perf_counter`` reads, which
        processes on one host share, so worker spans line up with the
        parent's."""
        return [
            {
                "name": name,
                "cat": "other" if name == ROOT else name.split(":", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


def write_chrome_trace(path, events: List[dict], metadata: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata},
            handle,
        )


# --------------------------------------------------------------------- #
# Outcome observers: counts taken where the work happens
# --------------------------------------------------------------------- #
def _allocate_result(tallies, name, result) -> None:
    if result is None:
        tallies[name + ":failed"] += 1


def _decision(tallies, name, decision) -> None:
    tallies[f"{name}:{decision.outcome}"] += 1


_OBSERVERS = {
    "cluster:allocate": _allocate_result,
    "admission:decide": _decision,
}
