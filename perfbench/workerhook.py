"""Measurements from inside the shard worker processes.

A process-backed :class:`~repro.sharding.ShardedService` runs each shard in a
spawned worker that calls :func:`repro.shardworker.serve_trace` and
:func:`repro.shardworker.shutdown_service`.  :func:`attach` points those two
module attributes at the wrappers below; the parent pickles the wrappers by
their import path, so the workers run them instead.  After every call a
worker writes ``worker-<pid>.json`` into the directory named by
``PERFBENCH_WORKER_DIR``: its profiling-sweep count and, when
``PERFBENCH_WORKER_TRACE`` is ``1``, its per-layer totals and spans.
:func:`collect` reads and removes those files in the parent.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

from repro import shardworker
from repro.profiling.profiler import profiling_sweep_count

DIR_ENV = "PERFBENCH_WORKER_DIR"
TRACE_ENV = "PERFBENCH_WORKER_TRACE"

_serve_trace = shardworker.serve_trace
_shutdown_service = shardworker.shutdown_service

#: The worker's tracer (traced runs only), created on its first call.
_tracer = None


def serve_trace(payload):
    return _run(_serve_trace, payload)


def shutdown_service(save_only: bool = False):
    return _run(_shutdown_service, save_only)


def _run(fn, argument):
    global _tracer
    if _tracer is None and os.environ.get(TRACE_ENV) == "1":
        from perfbench.tracer import Tracer

        _tracer = Tracer().install()
    try:
        if _tracer is None:
            return fn(argument)
        return _tracer.unit(fn, argument)
    finally:
        _report()


def _report() -> None:
    directory = os.environ.get(DIR_ENV)
    if not directory:
        return
    record: Dict[str, object] = {
        "pid": os.getpid(),
        "sweeps": profiling_sweep_count(),
    }
    if _tracer is not None:
        record["layers"] = _tracer.layer_totals()
        record["wall_s"] = _tracer.root_wall()
        record["events"] = _tracer.chrome_events(pid=os.getpid())
    path = Path(directory) / f"worker-{os.getpid()}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


@contextmanager
def attach(directory, trace: bool = False):
    """Route shard workers through the wrappers above while the block runs,
    reporting into ``directory`` (traced when ``trace``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    saved = {key: os.environ.get(key) for key in (DIR_ENV, TRACE_ENV)}
    os.environ[DIR_ENV] = str(directory)
    os.environ[TRACE_ENV] = "1" if trace else "0"
    shardworker.serve_trace = serve_trace
    shardworker.shutdown_service = shutdown_service
    try:
        yield
    finally:
        shardworker.serve_trace = _serve_trace
        shardworker.shutdown_service = _shutdown_service
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def collect(directory) -> List[Dict[str, object]]:
    """Every worker record written into ``directory``, removing the files."""
    records = []
    for path in sorted(Path(directory).glob("worker-*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    return records
