"""Shard-worker entry points that fail on purpose, for fault-injection tests.

A test points :func:`repro.shardworker.serve_trace` at one of these (the
module-attribute seam a process-backed ``ShardedService`` dispatches
through); the parent pickles the function by its import path, so the
spawned worker imports this module and runs it.
"""

from __future__ import annotations

import os


def die(payload):
    """Kill the worker process before it serves anything."""
    os._exit(1)
