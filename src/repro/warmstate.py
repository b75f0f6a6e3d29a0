"""Persistent warm-state cache: zero-cost service restarts.

A fresh :class:`~repro.service.AIWorkflowService` pays a full cold start:
the profiling sweep over the agent library, an empty planner decision cache,
and re-convergence of every trace group.  For the rolling-restart-under-
live-traffic production story that cost is pure waste — nothing about the
library, the policy, or the cluster changed; the process did.

:class:`WarmStateCache` serializes the three warm artefacts to disk so the
next process starts hot:

* the **profile store** (keyed by :meth:`AgentLibrary.fingerprint`), so a
  restart skips the profiling sweep entirely;
* the **planner plan cache** (self-validating entries — each key embeds the
  policy fingerprint and cluster-stats digest it was decided under);
* **trace recordings**: the exact accounting stream of a served arrival
  trace (keyed by library + policy fingerprints, the trace's workload
  sequence, spec digests, and the cluster shape), so re-serving the
  identical trace after a restart replays it byte-for-byte with *zero*
  probe simulations.

Invalidation is strict and silent: any fingerprint mismatch, a truncated or
corrupted file, or a schema bump simply misses and the service falls back to
the cold path.  Every payload is wrapped in an envelope carrying the schema
version and the full key, and the file is checksummed (SHA-256) so partial
writes can never deliver a wrong payload.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bump when any persisted payload shape or key changes; every existing cache
#: file then misses (cold fallback) instead of being misinterpreted.  Version
#: 2 keys trace recordings by a digest of the workload-code sequence and the
#: arrival times.
SCHEMA_VERSION = 2

#: Leading bytes of every cache file (format sanity check before hashing).
_MAGIC = b"RPROWARM"

#: Default on-disk location (CLI default; services take an explicit path).
DEFAULT_CACHE_DIR = ".repro-warm-cache"

#: Shard-local sub-caches of a sharded service live in ``shard-NN``
#: subdirectories of the service's cache root, so every worker engine keeps
#: its own byte-stable recordings regardless of shard count.
SHARD_DIR_PREFIX = "shard-"


def shard_dir_name(shard_id: int) -> str:
    """The cache subdirectory name of one shard (``shard-00``, ...)."""
    if shard_id < 0:
        raise ValueError("shard_id must be non-negative")
    return f"{SHARD_DIR_PREFIX}{shard_id:02d}"


def fingerprint_digest(value: object) -> str:
    """A stable short digest of any repr-deterministic fingerprint object."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------- #
# Trace recordings
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ReplayRecord:
    """The exact accounting payload of one distinct served result.

    ``pinned_finish`` is set for probe (fully simulated) positions: the
    simulated ``finished_at`` is recorded verbatim because ``start +
    makespan`` does not round-trip bit-exactly in floating point.
    """

    makespan_s: float
    energy_wh: float
    cost: float
    quality: float
    pinned_finish: Optional[float] = None


@dataclass
class TraceRecording:
    """The replayable accounting stream of one served arrival trace.

    ``script[i]`` indexes :attr:`records` for the i-th arrival in admission
    (time-sorted) order.  A recording is only valid for a byte-identical
    serving context; every field below is part of the cache key, so any
    drift — a different trace, library, policy, cluster, pool, or profile
    store — misses and the service re-converges cold.
    """

    records: List[ReplayRecord] = field(default_factory=list)
    script: List[int] = field(default_factory=list)
    #: Profile-store mutation version at serving time (0 for a fresh store).
    store_version: int = 0
    #: Engine epoch the trace was rebased onto (0.0 for a fresh service).
    epoch: float = 0.0

    def fits(self, length: int) -> bool:
        """Whether this recording can replay a trace of ``length`` arrivals:
        one script step per arrival, each an ``int`` indexing a record, and
        every record a :class:`ReplayRecord`."""
        records, script = self.records, self.script
        if not isinstance(records, list) or not isinstance(script, list):
            return False
        return (
            len(script) == length
            and set(map(type, script)) <= {int}
            and (not script or (min(script) >= 0 and max(script) < len(records)))
            and all(isinstance(record, ReplayRecord) for record in records)
        )


def trace_context_key(
    library_fingerprint: object,
    policy_fingerprint: str,
    workload_codes,
    workload_names: Tuple[str, ...],
    arrival_times,
    spec_digests: Tuple[Tuple[str, str], ...],
    cluster_fingerprint: tuple,
    pool_signature: tuple,
    store_version: int,
    epoch: float,
) -> tuple:
    """The full validity key of a trace recording.

    The trace itself is in the key, in admission order: its workload
    *sequence* (not just the set), as integer ``workload_codes`` into
    ``workload_names``, and its ``arrival_times``.  Steady-state
    convergence decisions depend on how groups interleave, and a recording
    pins its probes' simulated finishes, so only a trace admitting the same
    workloads in the same order at the same times replays identically.
    """
    sequence = hashlib.sha256(np.ascontiguousarray(workload_codes, dtype="<i8").tobytes())
    sequence.update(repr(tuple(workload_names)).encode("utf-8"))
    sequence.update(np.ascontiguousarray(arrival_times, dtype="<f8").tobytes())
    return (
        "trace",
        SCHEMA_VERSION,
        fingerprint_digest(library_fingerprint),
        policy_fingerprint,
        sequence.hexdigest()[:16],
        spec_digests,
        cluster_fingerprint,
        pool_signature,
        store_version,
        epoch,
    )


# --------------------------------------------------------------------- #
# The cache
# --------------------------------------------------------------------- #


@dataclass
class CacheEntry:
    """One on-disk cache file, as listed by ``repro cache info``."""

    kind: str
    digest: str
    path: Path
    size_bytes: int


class WarmStateCache:
    """An on-disk store of warm service state, strict about staleness.

    ``load`` returns ``None`` — never raises, never guesses — whenever the
    file is absent, truncated, corrupted, written by a different schema
    version, or keyed by different fingerprints.  Hit/miss/invalid counters
    are kept per instance so load tests can report cache effectiveness.
    """

    def __init__(self, root) -> None:
        if isinstance(root, WarmStateCache):  # pragma: no cover - defensive
            root = root.root
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Files that existed but failed validation (corruption, schema or
        #: fingerprint mismatch) — these also count as misses.
        self.invalid = 0
        self.stores = 0
        #: Stores that raised (an unpicklable payload, an unwritable root)
        #: and left nothing on disk.
        self.store_failures = 0

    # ------------------------------------------------------------------ #
    # Core load/store
    # ------------------------------------------------------------------ #
    def _path(self, kind: str, key: tuple) -> Path:
        return self.root / f"{kind}-{fingerprint_digest(key)}.pkl"

    def load(self, kind: str, key: tuple):
        """The payload stored under ``(kind, key)``, or ``None`` (cold)."""
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            if blob[: len(_MAGIC)] != _MAGIC:
                raise ValueError("bad magic")
            checksum = blob[len(_MAGIC) : len(_MAGIC) + 32]
            body = blob[len(_MAGIC) + 32 :]
            if hashlib.sha256(body).digest() != checksum:
                raise ValueError("checksum mismatch")
            envelope = pickle.loads(body)
            if envelope["schema"] != SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            if envelope["kind"] != kind or envelope["key"] != key:
                raise ValueError("key mismatch")
        except Exception:
            # Truncated write, garbage bytes, schema bump, digest collision:
            # all indistinguishable from "no usable warm state".
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def reject(self) -> None:
        """Recount the last hit: its payload loaded but was unusable.

        Callers that find a loaded payload malformed call this, so it counts
        exactly as a corrupt envelope does in :meth:`load` (invalid plus
        miss), never as a hit.
        """
        self.hits -= 1
        self.invalid += 1
        self.misses += 1

    def store(self, kind: str, key: tuple, payload) -> bool:
        """Persist ``payload`` under ``(kind, key)`` atomically.

        Returns ``False`` (without raising, counted in
        :attr:`store_failures`) when the payload cannot be pickled or the
        directory is unwritable — a broken cache must never take the serving
        path down.
        """
        try:
            body = pickle.dumps(
                {"schema": SCHEMA_VERSION, "kind": kind, "key": key, "payload": payload}
            )
            blob = _MAGIC + hashlib.sha256(body).digest() + body
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, self._path(kind, key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:
            self.store_failures += 1
            return False
        self.stores += 1
        return True

    # ------------------------------------------------------------------ #
    # Typed entry points
    # ------------------------------------------------------------------ #
    def load_profiles(self, library) -> Optional[list]:
        """The recorded profiling sweep for ``library``, in add order."""
        return self.load("profiles", self._library_key(library))

    def save_profiles(self, library, profiles: Sequence) -> bool:
        return self.store("profiles", self._library_key(library), list(profiles))

    def load_plan_cache(self, library) -> Optional[dict]:
        """``{"store_version": int, "entries": [(key, assignment), ...]}``."""
        payload = self.load("plans", self._library_key(library))
        if payload is None:
            return None
        if not isinstance(payload, dict) or "entries" not in payload:
            self.reject()
            return None
        return payload

    def save_plan_cache(self, library, store_version: int, entries) -> bool:
        payload = {"store_version": store_version, "entries": list(entries)}
        return self.store("plans", self._library_key(library), payload)

    def load_trace_recording(self, key: tuple, length: int) -> Optional[TraceRecording]:
        """The recording under ``key`` if it :meth:`~TraceRecording.fits` a
        trace of ``length`` arrivals; an unusable one is rejected (invalid
        plus miss, never a hit) and the caller serves cold."""
        payload = self.load("trace", key)
        if payload is None or (
            isinstance(payload, TraceRecording) and payload.fits(length)
        ):
            return payload
        self.reject()
        return None

    def save_trace_recording(self, key: tuple, recording: TraceRecording) -> bool:
        return self.store("trace", key, recording)

    @staticmethod
    def _library_key(library) -> tuple:
        return (SCHEMA_VERSION, fingerprint_digest(library.fingerprint()))

    # ------------------------------------------------------------------ #
    # Inspection / maintenance (the `repro cache` CLI surface)
    # ------------------------------------------------------------------ #
    def entries(self) -> List[CacheEntry]:
        found: List[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.glob("*.pkl")):
            kind, _, digest = path.stem.rpartition("-")
            found.append(
                CacheEntry(
                    kind=kind or path.stem,
                    digest=digest,
                    path=path,
                    size_bytes=path.stat().st_size,
                )
            )
        return found

    def total_size_bytes(self, include_shards: bool = False) -> int:
        total = sum(entry.size_bytes for entry in self.entries())
        if include_shards:
            total += sum(
                cache.total_size_bytes() for cache in self.shard_caches().values()
            )
        return total

    def shard_caches(self) -> Dict[str, "WarmStateCache"]:
        """Shard-local sub-caches under this root, keyed by directory name.

        A :class:`~repro.sharding.ShardedService` gives every worker engine
        its own ``shard-NN`` subdirectory; this is how ``repro cache info``
        inspects them without knowing the shard count.
        """
        found: Dict[str, WarmStateCache] = {}
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.iterdir()):
            if path.is_dir() and path.name.startswith(SHARD_DIR_PREFIX):
                found[path.name] = WarmStateCache(path)
        return found

    def shard_summary(self) -> List[Dict[str, object]]:
        """Entry count and size per shard subdirectory (``repro cache info``)."""
        return [
            {
                "name": name,
                "entries": len(cache.entries()),
                "size_bytes": cache.total_size_bytes(),
            }
            for name, cache in self.shard_caches().items()
        ]

    def clear(self, include_shards: bool = True) -> int:
        """Delete every cache file (shard sub-caches included by default);
        returns how many files were removed."""
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - fs race
                pass
        if include_shards:
            for cache in self.shard_caches().values():
                removed += cache.clear()
                try:
                    cache.root.rmdir()
                except OSError:  # non-cache files present: leave the dir
                    pass
        return removed

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "stores": self.stores,
            "store_failures": self.store_failures,
        }


def resolve_warm_cache(cache) -> Optional[WarmStateCache]:
    """Accept ``None``, a path-like, or a :class:`WarmStateCache`."""
    if cache is None or isinstance(cache, WarmStateCache):
        return cache
    return WarmStateCache(cache)
