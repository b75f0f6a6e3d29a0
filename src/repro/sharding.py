"""Sharded service scale-out: parallel worker engines behind one facade.

Everything before this module funnels through one shared
:class:`~repro.sim.engine.SimulationEngine` inside one
:class:`~repro.service.AIWorkflowService` — the ceiling on "millions of
users" is that single event loop.  :class:`ShardedService` presents the same
facade (``submit``, ``submit_spec``, ``submit_trace``, policy / dynamics /
warm-cache passthrough) but partitions admission across N worker engines:

* **Routing** is deterministic consistent hashing (:class:`ShardRouter`,
  sha256-based — never Python's randomized ``hash()``) on the job's
  ``spec_digest`` / description, and on the workload (tenant) name for
  traces.  All arrivals of one workload land on one shard, so grouped-trace
  steady-state memoization and persistent warm-state recordings stay
  shard-local and byte-stable regardless of shard count, and adding a shard
  only remaps the keys the new shard takes over.

* **Backends**: ``backend="process"`` (default) runs each shard as a
  long-lived ``multiprocessing`` worker process (spawn-safe; see
  :mod:`repro.shardworker`) hosting its own engine / planner / profile
  store built from the same library + policy-bundle fingerprint — the first
  path on which trace-serving throughput scales with cores.
  ``backend="inline"`` hosts every shard service in-process (sequential),
  for tests, debugging, and platforms without usable multiprocessing.

* **Merging**: the parent ships workload specs plus each shard's
  :class:`~repro.workloads.arrival.ArrivalColumns` sub-trace (arrays) to the
  shards and folds the returned :class:`~repro.loadgen.TraceReport`\\ s and
  :class:`~repro.service.ServiceStats` into one exact global view via their
  ``merge()`` layers, with per-shard provenance counters.  A 1-shard
  sharded service is field-for-field identical to a plain
  ``AIWorkflowService`` on the same trace (asserted differentially in the
  test suite).

* **Telemetry**: :meth:`ShardedService.add_merge_listener` delivers every
  merged report (plus the per-shard raw reports) to cross-shard control
  loops — the global view cluster dynamics / autoscaling policies read;
  :meth:`ShardedService.global_view` exposes the same merged state on
  demand.

The seam follows magnus-core's ``BaseExecutor`` split: the same declarative
graph is either executed in-process or rendered as serializable job specs
dispatched to external workers — the :class:`~repro.spec.ir.WorkflowSpec`
IR is the serializable unit of dispatch, and per-shard warm-cache
subdirectories (``shard-NN``) keep restarts cheap per worker.
"""

from __future__ import annotations

import bisect
import hashlib
import time as _wall_time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.job import Job, JobResult
from repro.loadgen import TraceJobIds, TraceReport, WorkloadRegistry, default_registry
from repro.policies.bundles import PolicyBundle, PolicyLike, resolve_bundle
from repro.service import AIWorkflowService, ServiceStats
from repro.warmstate import shard_dir_name
from repro.workloads.arrival import ArrivalColumns, JobArrival, index_dtype

if TYPE_CHECKING:  # multiprocessing is imported only once a process shard starts
    from concurrent.futures import Future


# --------------------------------------------------------------------- #
# Deterministic consistent-hash routing
# --------------------------------------------------------------------- #


def stable_key_hash(key: str) -> int:
    """A 64-bit position on the hash ring for ``key``.

    sha256-based so the mapping is identical across runs, processes, and
    machines — Python's ``hash()`` is salted per process and must never
    decide shard placement.
    """
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Deterministic consistent hashing of string keys onto shard ids.

    Each shard contributes ``replicas`` virtual points to a ring; a key is
    owned by the first point clockwise of its own hash.  Growing the ring
    from N to N+1 shards therefore only moves the keys the new shard's
    points capture — every other key keeps its shard, which is what keeps
    shard-local warm caches valid across scale-out.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append(
                    (stable_key_hash(f"shard:{shard}:replica:{replica}"), shard)
                )
        points.sort()
        self._ring = points
        self._positions = [position for position, _ in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (stable across processes and runs)."""
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._positions, stable_key_hash(key))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def shard_for_job(self, job: Job) -> int:
        """Route a single job: by spec digest when compiled from a spec,
        else by its natural-language description."""
        return self.shard_for(job.spec_digest or job.description)

    def partition(self, arrivals: ArrivalColumns) -> Dict[int, np.ndarray]:
        """Split a trace by tenant (workload name), preserving order.

        Returns ``{shard: global_indices}`` for every shard that owns an
        arrival, in shard order, each an ascending array of trace indices
        (in the compact :func:`~repro.workloads.arrival.index_dtype`):
        ``arrivals.take(indices)`` is that shard's sub-trace in its original
        relative order, and its indices name its jobs as an unsharded
        serving of the same trace would.  Each workload name is routed once.
        """
        owner = np.array([self.shard_for(name) for name in arrivals.names], dtype=np.intp)
        shard_of = owner[arrivals.codes]
        counts = np.bincount(shard_of, minlength=self.shards)
        dtype = index_dtype(len(arrivals))
        return {
            shard: np.flatnonzero(shard_of == shard).astype(dtype)
            for shard in np.flatnonzero(counts).tolist()
        }


# --------------------------------------------------------------------- #
# The sharded facade
# --------------------------------------------------------------------- #


class ShardedService:
    """N worker engines behind one logical AIWaaS endpoint.

    Presents the :class:`~repro.service.AIWorkflowService` facade; see the
    module docstring for the partitioning / backend / merging model.

    ``backend="process"`` restrictions (everything crosses a process
    boundary): policies must be registered bundle *names*, cluster dynamics
    are not supported (a disruption schedule binds to one engine — use
    ``backend="inline"``), trace workloads must be spec-registered, and
    returned :class:`~repro.core.job.JobResult`\\ s carry accounting and
    output but not the full plan/trace detail.
    """

    def __init__(
        self,
        shards: int = 2,
        backend: str = "process",
        policy: PolicyLike = None,
        dynamics=None,
        warm_cache=None,
        keep_warm: bool = True,
        registry: Optional[WorkloadRegistry] = None,
        replicas: int = 64,
        admission=None,
        fabric=None,
    ) -> None:
        if backend not in ("inline", "process"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'inline' or 'process'"
            )
        self.router = ShardRouter(shards, replicas=replicas)
        self.backend = backend
        #: Resolved once so a typo'd bundle name fails at construction.
        self._installed_bundle: Optional[PolicyBundle] = (
            resolve_bundle(policy) if policy is not None else None
        )
        self._policy: PolicyLike = policy
        if backend == "process" and policy is not None and not isinstance(policy, str):
            raise TypeError(
                "backend='process' ships policies by registered bundle name; "
                "pass the name (e.g. 'energy_first') or use backend='inline'"
            )
        self._keep_warm = keep_warm
        self._warm_root: Optional[Path] = None
        if warm_cache is not None:
            from repro.warmstate import WarmStateCache

            # Careful: plain Path objects also have a ``.root`` attribute
            # (the filesystem anchor), so only unwrap actual caches.
            if isinstance(warm_cache, WarmStateCache):
                warm_cache = warm_cache.root
            self._warm_root = Path(warm_cache)
        self._registry = registry
        #: Default admission config installed on every shard's trace runs
        #: (overridable per ``submit_trace`` call).  Normalized eagerly so a
        #: bad config fails at construction, not in a worker process.
        from repro.admission import admission_of

        self.admission = admission_of(admission)
        #: Interconnect model installed on every shard.  Normalized eagerly
        #: (a typo'd profile name fails at construction) and shipped to
        #: process workers in dict form, like the admission config.
        from repro.fabric import fabric_of

        self.fabric = fabric_of(fabric)
        self._dynamics_config = None
        #: Inline backend: shard id -> long-lived in-process service.
        self._inline: Dict[int, AIWorkflowService] = {}
        #: Process backend: shard id -> single-worker executor (affinity:
        #: every call for a shard lands in the same worker process, which
        #: keeps that shard's service warm for the life of the pool).
        self._executors: Dict[int, object] = {}
        #: Latest per-shard accounting snapshots returned by workers.
        self._shard_stats: Dict[int, ServiceStats] = {}
        self._cache_counters: Dict[int, Dict[str, int]] = {}
        self._last_reports: Dict[int, TraceReport] = {}
        self._merge_listeners: List[Callable] = []
        self._closed = False
        if dynamics is not None:
            self.attach_dynamics(dynamics)

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return self.router.shards

    @property
    def registry(self) -> WorkloadRegistry:
        """The parent-side workload registry (shipped workloads by default,
        built on first use; shared with :class:`~repro.client.MurakkabClient`)."""
        if self._registry is None:
            self._registry = default_registry()
        return self._registry

    def shard_warm_dir(self, shard: int) -> Optional[str]:
        """The shard's warm-cache subdirectory (``<root>/shard-NN``)."""
        if self._warm_root is None:
            return None
        return str(self._warm_root / shard_dir_name(shard))

    @property
    def warm_cache(self):
        """A :class:`~repro.warmstate.WarmStateCache` over the cache *root*
        (for inspection; shards load/store in their own subdirectories), or
        ``None`` when no cache is attached."""
        if self._warm_root is None:
            return None
        from repro.warmstate import WarmStateCache

        return WarmStateCache(self._warm_root)

    def _shard_config(self) -> Dict[str, object]:
        """The serializable per-shard service recipe (process backend)."""
        return {
            "keep_warm": self._keep_warm,
            "policy": self._policy if isinstance(self._policy, str) else None,
            "fabric": self.fabric.to_dict() if self.fabric is not None else None,
        }

    def _inline_shard(self, shard: int) -> AIWorkflowService:
        service = self._inline.get(shard)
        if service is None:
            service = AIWorkflowService(
                keep_warm=self._keep_warm,
                policy=self._installed_bundle,
                warm_cache=self.shard_warm_dir(shard),
                fabric=self.fabric,
            )
            if self._dynamics_config is not None:
                service.attach_dynamics(self._copy_dynamics_config())
            self._inline[shard] = service
        return service

    def _executor(self, shard: int):
        executor = self._executors.get(shard)
        if executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn")
            )
            self._executors[shard] = executor
        return executor

    def _copy_dynamics_config(self):
        """Each shard gets its own schedule instance: the seeded models are
        deterministic, so every shard sees the identical disruption script
        without sharing mutable state across engines."""
        import copy

        return copy.deepcopy(self._dynamics_config)

    def _absorb(self, outcome: Dict[str, object]) -> None:
        """Fold a worker return (stats snapshot + cache counters) in."""
        shard = outcome["shard"]
        self._shard_stats[shard] = outcome["stats"]
        cache = outcome.get("cache")
        if cache:
            self._cache_counters[shard] = cache

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedService is shut down")

    # ------------------------------------------------------------------ #
    # Policy / dynamics passthrough
    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> Optional[PolicyBundle]:
        """The installed policy bundle (``None`` = stock behaviour), as on
        :class:`~repro.service.AIWorkflowService`."""
        return self._installed_bundle

    def set_policy(self, policy: PolicyLike) -> PolicyBundle:
        """Switch every shard's control-plane bundle.

        Inline shards switch immediately; process shards receive the bundle
        name with their next dispatch (shard-local caches are fingerprint-
        namespaced either way, so no stale decision is ever replayed).
        """
        self._check_open()
        if self.backend == "process" and not isinstance(policy, str):
            raise TypeError(
                "backend='process' ships policies by registered bundle name; "
                "pass the name (e.g. 'energy_first') or use backend='inline'"
            )
        bundle = resolve_bundle(policy)
        self._policy = policy
        self._installed_bundle = bundle
        for service in self._inline.values():
            service.set_policy(bundle)
        return bundle

    def set_fabric(self, fabric):
        """Install (or clear, with ``None``) the interconnect model on
        every shard.

        Inline shards switch immediately; process shards receive the
        topology in dict form with their next dispatch.  Accepts a
        :class:`~repro.fabric.FabricTopology`, a registered profile name,
        or its dict form; returns the installed topology.
        """
        self._check_open()
        from repro.fabric import fabric_of

        topology = fabric_of(fabric)
        self.fabric = topology
        for service in self._inline.values():
            service.set_fabric(topology)
        return topology

    @property
    def dynamics(self):
        """Per-shard :class:`~repro.cluster.dynamics.ClusterDynamics`
        (inline backend), keyed by shard id; empty without a schedule."""
        return {
            shard: service.dynamics
            for shard, service in self._inline.items()
            if service.dynamics is not None
        }

    def attach_dynamics(self, dynamics):
        """Run every shard's cluster under a disruption schedule.

        Accepts a :class:`~repro.cluster.dynamics.DynamicsConfig` only: a
        constructed ``ClusterDynamics`` binds to one engine and cannot be
        shared across shards.  Each shard (current and future) attaches its
        own deep copy, so the seeded schedules stay deterministic per shard.
        Inline backend only.
        """
        self._check_open()
        if self.backend == "process":
            raise ValueError(
                "cluster dynamics bind to shard-local engines; use "
                "backend='inline' for disruption schedules on a sharded service"
            )
        from repro.cluster.dynamics import ClusterDynamics, DynamicsConfig

        if isinstance(dynamics, ClusterDynamics):
            raise TypeError(
                "pass a DynamicsConfig: a ClusterDynamics instance binds to "
                "one engine and cannot be shared across shards"
            )
        if not isinstance(dynamics, DynamicsConfig):
            raise TypeError(f"cannot interpret dynamics: {dynamics!r}")
        self._dynamics_config = dynamics
        for service in self._inline.values():
            service.attach_dynamics(self._copy_dynamics_config())
        return self.dynamics

    # ------------------------------------------------------------------ #
    # Job submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        description: str,
        inputs: Sequence[object] = (),
        tasks: Sequence[str] = (),
        constraints=None,
        quality_target: float = 0.0,
        job_id: str = "",
    ) -> JobResult:
        """Submit a declarative job described entirely by its intent."""
        job = Job(
            description=description,
            inputs=inputs,
            tasks=tasks,
            constraints=constraints,
            quality_target=quality_target,
            job_id=job_id,
        )
        return self.submit_job(job)

    def submit_job(self, job: Job) -> JobResult:
        """Submit a pre-built :class:`Job` to the shard owning its key."""
        self._check_open()
        shard = self.router.shard_for_job(job)
        if self.backend == "inline":
            return self._inline_shard(shard).submit_job(job)
        from repro import shardworker

        payload = {
            "shard": shard,
            "config": self._shard_config(),
            "warm_cache": self.shard_warm_dir(shard),
            "job": job,
        }
        try:
            future = self._submit(shard, shardworker.serve_job, payload)
        except TypeError as error:  # unpicklable job payload
            raise TypeError(
                "this job cannot cross a process boundary (unpicklable "
                "inputs/constraints); use backend='inline' for it"
            ) from error
        outcome = self._results({shard: future})[shard]
        self._absorb(outcome)
        return outcome["result"]

    def submit_spec(
        self,
        spec,
        inputs: Optional[Sequence[object]] = None,
        job_id: str = "",
    ) -> JobResult:
        """Compile a declarative :class:`~repro.spec.ir.WorkflowSpec` and
        submit it (compilation — validation, decomposition — happens in the
        parent; the shard plans and executes)."""
        from repro.spec.compiler import compile_spec

        return self.submit_job(compile_spec(spec, inputs=inputs, job_id=job_id))

    # ------------------------------------------------------------------ #
    # Trace serving (the scale-out path)
    # ------------------------------------------------------------------ #
    def submit_trace(
        self,
        arrivals: Union[ArrivalColumns, Sequence[JobArrival]],
        registry: Optional[WorkloadRegistry] = None,
        mode: str = "grouped",
        max_per_job_records: Optional[int] = 256,
        job_ids: Optional[Callable[[int, str], str]] = None,
        dynamics=None,
        policy: PolicyLike = None,
        admission=None,
        multiplex_window: Optional[int] = None,
    ) -> TraceReport:
        """Serve a whole arrival trace across the shards and merge.

        ``arrivals`` is an :class:`~repro.workloads.arrival.ArrivalColumns`
        or a sequence of :class:`~repro.workloads.arrival.JobArrival`,
        converted to columns once, here; shards receive their sub-traces as
        columns (arrays, on the process backend) and never rebuild arrival
        objects.

        ``admission`` (an :class:`~repro.admission.AdmissionConfig` or its
        dict form) installs the admission ladder on every shard: each shard
        runs its own controller over its sub-trace — the rate budget is
        per shard-engine, matching per-worker capacity — and the shed
        counters (rejected/degraded/deferred, per-priority breakdowns)
        merge exactly into the global report.  The ladder works in both
        serving modes; ``multiplex_window`` tunes each shard's multiplex
        steady-window detector (``0`` disables it).

        The trace is partitioned by tenant (workload name) via the
        consistent-hash router; each shard serves its sub-trace on its own
        engine — in parallel worker processes on the process backend — and
        the returned reports are folded into one exact global
        :class:`~repro.loadgen.TraceReport` (per-shard provenance in
        :attr:`~repro.loadgen.TraceReport.shards`;
        ``wall_seconds`` is the parent's measured wall clock around the
        whole fan-out).  Options mirror
        :meth:`repro.service.AIWorkflowService.submit_trace`; ``job_ids``
        callables and ``dynamics`` schedules do not cross process
        boundaries (inline backend only), and shard job ids are derived
        from each arrival's *global* trace index, so a 1-shard serving is
        field-for-field identical to an unsharded one.
        """
        self._check_open()
        arrivals = ArrivalColumns.of(arrivals)
        if not len(arrivals):
            raise ValueError("at least one arrival is required")
        if mode not in ("grouped", "multiplex"):
            raise ValueError(f"unknown mode {mode!r}; expected 'grouped' or 'multiplex'")
        if policy is not None:
            self.set_policy(policy)
        if dynamics is not None:
            self.attach_dynamics(dynamics)
        registry = registry or self.registry
        started = _wall_time.perf_counter()
        assignment = {
            shard: (indices, arrivals.take(indices))
            for shard, indices in self.router.partition(arrivals).items()
        }
        options = {"mode": mode, "max_per_job_records": max_per_job_records}
        if multiplex_window is not None:
            options["multiplex_window"] = multiplex_window
        if admission is None:
            admission = self.admission
        if admission is not None:
            from repro.admission import admission_of

            # Shipped in dict form: it crosses the process boundary as
            # plain data and is re-normalised inside the worker.
            options["admission"] = admission_of(admission).to_dict()
        if self.backend == "inline":
            outcomes = self._run_inline(assignment, registry, job_ids, options)
        else:
            if job_ids is not None:
                raise ValueError(
                    "job_ids callables do not cross process boundaries; "
                    "use backend='inline' for custom job naming"
                )
            outcomes = self._run_process(assignment, registry, options)
        shard_ids = [shard for shard, _ in outcomes]
        merged = TraceReport.merged(
            [report for _, report in outcomes], shard_ids=shard_ids
        )
        merged.wall_seconds = _wall_time.perf_counter() - started
        self._last_reports = dict(outcomes)
        for listener in list(self._merge_listeners):
            listener(merged, dict(outcomes))
        return merged

    def _run_inline(
        self, assignment, registry, job_ids, options
    ) -> List[Tuple[int, TraceReport]]:
        outcomes: List[Tuple[int, TraceReport]] = []
        for shard in sorted(assignment):
            indices, subset = assignment[shard]
            service = self._inline_shard(shard)
            if job_ids is None:
                naming = TraceJobIds(indices)
            else:
                naming = lambda local, workload, _indices=indices.tolist(): job_ids(  # noqa: E731
                    _indices[local], workload
                )
            report = service.submit_trace(
                subset, registry=registry, job_ids=naming, **options
            )
            outcomes.append((shard, report))
        return outcomes

    def _run_process(
        self, assignment, registry, options
    ) -> List[Tuple[int, TraceReport]]:
        from repro import shardworker

        futures: Dict[int, Future] = {}
        for shard in sorted(assignment):
            indices, subset = assignment[shard]
            payload = {
                "shard": shard,
                "config": self._shard_config(),
                "warm_cache": self.shard_warm_dir(shard),
                "specs": self._spec_payload(registry, subset),
                "arrivals": subset,
                "indices": indices,
                "options": options,
            }
            futures[shard] = self._submit(shard, shardworker.serve_trace, payload)
        outcomes: List[Tuple[int, TraceReport]] = []
        for shard, outcome in self._results(futures).items():
            self._absorb(outcome)
            outcomes.append((shard, outcome["report"]))
        return outcomes

    @staticmethod
    def _spec_payload(registry: WorkloadRegistry, subset: ArrivalColumns) -> Dict[str, str]:
        """Serialized specs for every workload in a shard's sub-trace.

        The spec IR is the unit of dispatch: workers rebuild the workload
        (validation, input materialization — deterministic per spec) from
        JSON.
        """
        return {name: registry.spec(name).to_json() for name in sorted(subset.names)}

    def _submit(self, shard: int, fn, *args) -> Future:
        """Dispatch ``fn(*args)`` to the shard's worker.  A worker already
        found dead gives a future holding that error, so :meth:`_results`
        reports every loss the same way."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        try:
            return self._executor(shard).submit(fn, *args)
        except BrokenProcessPool as error:
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    def _results(self, futures: Dict[int, Future]) -> Dict[int, object]:
        """Every shard's outcome, in shard order.

        Waits for every shard before failing, so a dead worker does not
        leave the others' outcomes unread; then raises :meth:`_lost` for the
        shards whose workers died.
        """
        from concurrent.futures.process import BrokenProcessPool

        outcomes: Dict[int, object] = {}
        lost: List[int] = []
        error: Optional[BaseException] = None
        for shard in sorted(futures):
            try:
                outcomes[shard] = futures[shard].result()
            except BrokenProcessPool as broken:
                lost.append(shard)
                error = error or broken
        if lost:
            raise self._lost(lost) from error
        return outcomes

    def _lost(self, shards: List[int]) -> RuntimeError:
        """Discard the broken executors of ``shards`` (the next dispatch to
        each spawns a fresh worker) and describe the loss."""
        for shard in shards:
            executor = self._executors.pop(shard, None)
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        names = ", ".join(f"shard {shard}" for shard in shards)
        return RuntimeError(
            f"{names}: worker process died before returning its outcome; "
            "the next dispatch to it starts a fresh worker"
        )

    # ------------------------------------------------------------------ #
    # Merged accounting and telemetry
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ServiceStats:
        """One exact global :class:`~repro.service.ServiceStats` merged from
        every shard (with per-shard provenance), rebuilt on access."""
        shard_ids: List[int] = []
        snapshots: List[ServiceStats] = []
        live = self._inline if self.backend == "inline" else self._shard_stats
        for shard in sorted(live):
            source = live[shard]
            snapshots.append(source.stats if self.backend == "inline" else source)
            shard_ids.append(shard)
        if not snapshots:
            return ServiceStats()
        return ServiceStats.merged(snapshots, shard_ids=shard_ids)

    def warm_cache_counters(self) -> Dict[str, int]:
        """Hit/miss/invalid/store/store-failure counters summed across every
        shard cache."""
        totals = {"hits": 0, "misses": 0, "invalid": 0, "stores": 0, "store_failures": 0}
        if self.backend == "inline":
            sources = [
                service.warm_cache.counters()
                for service in self._inline.values()
                if service.warm_cache is not None
            ]
        else:
            sources = list(self._cache_counters.values())
        for counters in sources:
            for key in totals:
                totals[key] += counters.get(key, 0)
        return totals

    def add_merge_listener(self, callback: Callable) -> None:
        """Subscribe a cross-shard control loop to the merged global view.

        ``callback(merged_report, shard_reports)`` fires after every
        ``submit_trace`` merge with the global
        :class:`~repro.loadgen.TraceReport` and the raw per-shard reports —
        the hook cluster dynamics / autoscaling read instead of any single
        shard's telemetry.
        """
        self._merge_listeners.append(callback)

    def remove_merge_listener(self, callback: Callable) -> None:
        self._merge_listeners.remove(callback)

    def global_view(self) -> Dict[str, object]:
        """The merged cross-shard state on demand (stats, last per-shard
        trace provenance, aggregated warm-cache counters)."""
        stats = self.stats
        return {
            "shards": self.shards,
            "backend": self.backend,
            "jobs_completed": stats.jobs_completed,
            "stats": stats,
            "trace_provenance": {
                shard: report.provenance()
                for shard, report in sorted(self._last_reports.items())
            },
            "warm_cache": self.warm_cache_counters(),
        }

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def available_agents(self) -> List[str]:
        if self._inline:
            return next(iter(self._inline.values())).available_agents()
        from repro.agents.library import default_library

        return default_library().names()

    def warm_agents(self) -> List[str]:
        """Serving instances kept warm across all inline shards (process
        shards keep their pools worker-local)."""
        names: List[str] = []
        for shard in sorted(self._inline):
            names.extend(self._inline[shard].warm_agents())
        return names

    def register_agent(self, implementation) -> None:
        """Make a new model/tool available on every shard (inline only:
        process workers own their libraries for their lifetime)."""
        if self.backend == "process":
            raise ValueError(
                "library evolution is shard-local on backend='process'; "
                "use backend='inline' or restart the sharded service"
            )
        for shard in range(self.shards):
            self._inline_shard(shard).register_agent(implementation)

    def retire_agent(self, name: str) -> None:
        """Remove a deprecated model/tool from every shard (inline only)."""
        if self.backend == "process":
            raise ValueError(
                "library evolution is shard-local on backend='process'; "
                "use backend='inline' or restart the sharded service"
            )
        for shard in range(self.shards):
            self._inline_shard(shard).retire_agent(name)

    def save_warm_state(self) -> None:
        """Persist every shard's planner decisions to its warm cache."""
        if self.backend == "inline":
            for service in self._inline.values():
                service.save_warm_state()
            return
        self._dispatch_shutdown(save_only=True)

    def shutdown(self) -> None:
        """Tear down every shard (warm state saved) and release workers."""
        if self._closed:
            return
        self._closed = True
        if self.backend == "inline":
            for service in self._inline.values():
                service.shutdown()
            return
        try:
            self._dispatch_shutdown(save_only=False)
        finally:
            # Even when a worker died, release every other one.
            for executor in self._executors.values():
                executor.shutdown(wait=True)
            self._executors.clear()

    def _dispatch_shutdown(self, save_only: bool) -> None:
        from repro import shardworker

        futures = {
            shard: self._submit(shard, shardworker.shutdown_service, save_only)
            for shard in sorted(self._executors)
        }
        for shard, outcome in self._results(futures).items():
            cache = outcome.get("cache")
            if cache:
                self._cache_counters[shard] = cache

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
