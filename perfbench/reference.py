"""Fixed reference loads that gauge the host's current speed.

The host's speed moves by up to 2x in phases of seconds to minutes
(``NOTES.md``, Noise), longer than a run, so two runs of the same code can
read very different times.  The benchmark therefore times reference work
beside the program's and reports the program's figures at the reference's
nominal speed.  The references use none of the program's code, so a change
to the program moves the normalised figures in full; only the host's speed
cancels.

Two references, because warm and cold work slow down differently:

* :class:`Gauge` runs chunks of a warm pure-Python load shaped like the
  program's hot paths (a heap-ordered event loop over small objects, dict
  bookkeeping, canonical JSON and sha256) between the timed units;
* :func:`startup_probe` times a fresh interpreter importing a fixed set of
  standard-library modules, which tracks the import-dominated set-up.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import subprocess
import sys
import time

#: Seconds one chunk takes at the host's median speed (2 vCPUs of an Intel
#: Xeon, Python 3.11); the normalised rate is expressed at this speed.
NOMINAL_CHUNK_S = 0.025

#: Reference time kept at this share of the timed units' wall time.
SHARE = 0.10

#: Seconds the start-up probe's imports take at the host's median speed.
NOMINAL_STARTUP_S = 0.100

_STARTUP_CODE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import argparse, asyncio, concurrent.futures, csv, dataclasses, decimal, difflib\n"
    "import email.mime.multipart, fractions, http.server, inspect, json, logging.handlers\n"
    "import pydoc, statistics, tarfile, typing, unittest, urllib.request, zipfile\n"
    "import xml.etree.ElementTree\n"
    "print(time.perf_counter() - started)\n"
)

_EVENTS_PER_CHUNK = 1500


class _Event:
    __slots__ = ("at", "kind", "job", "stage")

    def __init__(self, at: float, kind: str, job: int, stage: int) -> None:
        self.at = at
        self.kind = kind
        self.job = job
        self.stage = stage

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def chunk() -> int:
    """One fixed piece of reference work; returns its completed-job count."""
    rng = random.Random(7)
    heap = []
    jobs = {}
    done = 0
    for job in range(_EVENTS_PER_CHUNK):
        heapq.heappush(heap, _Event(rng.random() * 100.0, "arrive", job, 0))
    while heap:
        event = heapq.heappop(heap)
        if event.kind == "arrive":
            jobs[event.job] = {"start": event.at, "stages": [], "workflow": event.job % 4}
            for stage in range(3):
                heapq.heappush(
                    heap, _Event(event.at + 1.0 + stage * rng.random(), "stage", event.job, stage)
                )
            continue
        record = jobs[event.job]
        record["stages"].append((event.stage, event.at))
        if len(record["stages"]) == 3:
            done += 1
            text = json.dumps(record, sort_keys=True, separators=(",", ":"))
            record["digest"] = hashlib.sha256(text.encode()).hexdigest()
    sorted(jobs.values(), key=lambda record: (record["workflow"], record["start"]))
    return done


class Gauge:
    """Interleaves reference chunks with timed work and keeps their times."""

    def __init__(self) -> None:
        self.chunks = 0
        self.seconds = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Run chunks until the reference has had ``SHARE`` of ``timed_s``
        (at least one chunk in all)."""
        clock = time.perf_counter
        while self.chunks == 0 or self.seconds < SHARE * timed_s:
            # The chunk makes no reference cycles; keeping the collector off
            # stops the program's live heap from being traversed inside it.
            enabled = gc.isenabled()
            gc.disable()
            try:
                begin = clock()
                if chunk() != _EVENTS_PER_CHUNK:
                    raise RuntimeError("reference chunk lost jobs")
                self.seconds += clock() - begin
            finally:
                if enabled:
                    gc.enable()
            self.chunks += 1

    def slowdown(self) -> float:
        """The host's speed relative to nominal: >1 when it ran slow."""
        return self.seconds / self.chunks / NOMINAL_CHUNK_S


def startup_probe() -> float:
    """Seconds a fresh, isolated interpreter takes to import a fixed set of
    standard-library modules (interpreter start-up itself excluded)."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _STARTUP_CODE],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)
