"""The stable client facade over the Murakkab serving stack.

:class:`MurakkabClient` is the one front door applications hold: it accepts
declarative workloads in every form (a :class:`~repro.spec.ir.WorkflowSpec`,
a registered workload name, a pre-built :class:`~repro.core.job.Job`, or a
bare natural-language description), submits them through one long-lived
:class:`~repro.service.AIWorkflowService`, and returns
:class:`JobHandle`/:class:`TraceHandle` result objects whose accessors stay
stable while the runtime internals keep evolving.

:class:`Session` scopes cross-cutting execution context — the control-plane
policy bundle, a cluster-dynamics schedule, and default constraint/quality
settings — so they are stated once instead of threaded through every call::

    with MurakkabClient() as client:
        with client.session(policy="energy_first", quality_target=0.9) as session:
            handle = session.submit("newsfeed")
            trace = session.submit_trace(poisson_arrivals(1.0, 60.0, ("newsfeed",)))
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Union

from repro.core.constraints import Constraint, ConstraintSet
from repro.core.job import Job, JobResult
from repro.loadgen import TraceReport, WorkloadRegistry, default_registry
from repro.service import AIWorkflowService, ServiceStats
from repro.spec.compiler import compile_spec
from repro.spec.ir import SpecIssue, WorkflowSpec

WorkloadLike = Union[WorkflowSpec, Job, str]
ConstraintsLike = Union[Constraint, ConstraintSet, Sequence[Constraint], None]


class JobHandle:
    """Stable wrapper around one served job's result."""

    def __init__(self, result: JobResult, spec: Optional[WorkflowSpec] = None):
        self._result = result
        self._spec = spec

    @property
    def job_id(self) -> str:
        return self._result.job_id

    @property
    def result(self) -> JobResult:
        """The full :class:`JobResult` (plan, trace, task outputs, ...)."""
        return self._result

    @property
    def spec(self) -> Optional[WorkflowSpec]:
        """The workflow spec this job was compiled from, when known."""
        return self._spec

    @property
    def quality(self) -> float:
        return self._result.quality

    @property
    def makespan_s(self) -> float:
        return self._result.makespan_s

    @property
    def cost(self) -> float:
        return self._result.cost

    @property
    def energy_wh(self) -> float:
        return self._result.energy_wh

    def output(self) -> Dict[str, object]:
        """The job's final output payload (e.g. the answer text)."""
        return dict(self._result.output)

    def answer(self) -> str:
        return str(self._result.output.get("answer", ""))

    def summary(self) -> Dict[str, object]:
        return self._result.summary()

    def metrics(self) -> Dict[str, float]:
        """The unrounded makespan/energy/cost/quality record."""
        return self._result.compact_summary()

    def describe_plan(self) -> str:
        """What the runtime decided: the chosen per-interface configurations."""
        plan = self._result.plan
        return plan.describe() if plan is not None else "(no plan recorded)"

    def wait(self) -> JobResult:
        """Block until the job completes (submission is synchronous today;
        kept so callers are forward-compatible with an async service)."""
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.job_id!r}, quality={self.quality:.3f})"


class TraceHandle:
    """Stable wrapper around one served arrival trace's report."""

    def __init__(self, report: TraceReport):
        self._report = report

    @property
    def report(self) -> TraceReport:
        """The full streaming :class:`TraceReport`."""
        return self._report

    @property
    def jobs(self) -> int:
        return self._report.jobs

    @property
    def failed_jobs(self) -> int:
        return self._report.failed_jobs

    @property
    def wall_jobs_per_second(self) -> float:
        return self._report.wall_jobs_per_second

    def summary(self) -> Dict[str, object]:
        return self._report.summary()

    def group_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-workload simulated/replayed counters."""
        return {name: dict(counters) for name, counters in self._report.groups.items()}

    def disruptions(self) -> Dict[str, int]:
        return dict(self._report.disruptions)

    def wait(self) -> TraceReport:
        """Block until the trace completes (synchronous today; see
        :meth:`JobHandle.wait`)."""
        return self._report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceHandle(jobs={self.jobs}, failed={self.failed_jobs})"


class Session:
    """Execution context stated once: policy, dynamics, and job defaults.

    Obtained from :meth:`MurakkabClient.session`.  Every submission through
    the session runs under the session's policy bundle and applies its
    default constraint block / quality target to workloads that do not pin
    their own (explicit per-call settings still win).

    Policy, constraints, and quality target are *scoped*: they apply only
    to this session's submissions, and :meth:`close` reinstates the prior
    policy.  A ``dynamics`` schedule is the one exception — attaching it
    injects capacity events into the service's shared engine, so it lives
    for the rest of the service's life (state a disruption schedule on the
    client/service when that is not what you want to sign up for).
    """

    def __init__(
        self,
        client: "MurakkabClient",
        policy=None,
        dynamics=None,
        constraints: ConstraintsLike = None,
        quality_target: Optional[float] = None,
        job_prefix: str = "",
    ):
        self._client = client
        self.policy = policy
        self.constraints = constraints
        self.quality_target = quality_target
        self.job_prefix = job_prefix
        self._counter = itertools.count()
        #: The bundle installed before this session took scope; restored by
        #: :meth:`close` (``None`` restores the byte-identical ``default``).
        self._previous_policy = client.service.policy
        #: The resolved bundle this session actually installed (None until
        #: the first submission); lets close() and interleaved sessions
        #: distinguish "our bundle" from a direct service.set_policy call.
        self._installed_bundle = None
        self._closed = False
        if dynamics is not None:
            client.service.attach_dynamics(dynamics)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        workload: WorkloadLike,
        inputs: Optional[Sequence[object]] = None,
        job_id: str = "",
        constraints: ConstraintsLike = None,
        quality_target: Optional[float] = None,
    ) -> JobHandle:
        """Submit one workload and return its :class:`JobHandle`.

        ``workload`` may be a :class:`WorkflowSpec`, a registered workload
        name, a pre-built :class:`Job` (submitted as-is; it carries its own
        inputs and constraints, so passing them here is an error rather
        than a silent no-op — session defaults simply do not apply), or a
        bare natural-language description.  A string *without whitespace*
        is always treated as a workload-name lookup — a typo'd name raises
        :class:`~repro.loadgen.UnknownWorkloadError` listing what exists,
        instead of silently running as a one-word job description.
        """
        self._apply_policy()
        spec: Optional[WorkflowSpec] = None
        if isinstance(workload, Job):
            if inputs is not None or constraints is not None or quality_target is not None:
                raise ValueError(
                    "a pre-built Job carries its own inputs and constraints; "
                    "submit a spec or a registered workload name to override them"
                )
            job = workload
        else:
            constraints = constraints if constraints is not None else self.constraints
            quality_target = (
                quality_target if quality_target is not None else self.quality_target
            )
            if isinstance(workload, str):
                # Registry is touched only for by-name submissions: a
                # client serving explicit specs never builds it.
                registry = self._client.registry
                if workload in registry and inputs is None:
                    if constraints is None and quality_target is None:
                        # Unmodified registered workload: the registry
                        # compiles it with the inputs it materialized once
                        # at registration instead of regenerating them.
                        spec = registry.spec(workload)
                        job = registry.build(workload, job_id or self._job_id())
                        return JobHandle(
                            self._client.service.submit_job(job), spec=spec
                        )
                    # Constraint/quality overrides change the compiled job
                    # but never the corpus: still share the inputs.
                    inputs = registry.materialized_inputs(workload)
            spec = self._resolve_spec(workload)
            if spec is not None:
                spec = spec.with_overrides(
                    constraints=constraints, quality_target=quality_target
                )
                job = compile_spec(spec, inputs=inputs, job_id=job_id or self._job_id())
            else:
                job = Job(
                    description=str(workload),
                    inputs=inputs if inputs is not None else (),
                    constraints=constraints,
                    quality_target=quality_target if quality_target is not None else 0.0,
                    job_id=job_id or self._job_id(),
                )
        return JobHandle(self._client.service.submit_job(job), spec=spec)

    def submit_trace(self, arrivals, **options) -> TraceHandle:
        """Serve a whole arrival trace under this session's context."""
        self._apply_policy()
        options.setdefault("registry", self._client.registry)
        if self.policy is not None:
            options.setdefault("policy", self.policy)
        report = self._client.service.submit_trace(arrivals, **options)
        return TraceHandle(report)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _apply_policy(self) -> None:
        """Enforce this session's control plane on the shared service.

        A session without its own policy displaces only a bundle installed
        by another *session* of this client (reasserting the client's base
        policy), so submissions interleaved with an open policy session
        never silently run under that session's bundle — while a policy
        installed directly through the public ``service.set_policy`` API is
        respected and left alone.
        """
        service = self._client.service
        if self.policy is not None:
            self._installed_bundle = service.set_policy(self.policy)
            self._client._session_policy = self._installed_bundle
            stack = self._client._policy_sessions
            if self not in stack:
                stack.append(self)
            return
        current = service.policy
        if current is not None and current is self._client._session_policy:
            service.set_policy(self._client._base_policy)
            self._client._session_policy = None

    def _resolve_spec(self, workload: WorkloadLike) -> Optional[WorkflowSpec]:
        if isinstance(workload, WorkflowSpec):
            return workload
        name = str(workload)
        if name in self._client.registry:
            return self._client.registry.spec(name)
        if not name.split(None, 1)[1:]:
            # No whitespace: this reads as a workload name, not a job
            # description — fail loudly rather than run the wrong pipeline.
            from repro.loadgen import UnknownWorkloadError

            raise UnknownWorkloadError(name, self._client.registry.names())
        return None

    def _job_id(self) -> str:
        if not self.job_prefix:
            return ""
        return f"{self.job_prefix}-{next(self._counter)}"

    def close(self) -> None:
        """End the session's scope and reinstate the surrounding control
        plane: the innermost still-open policy session's bundle, else the
        client's base policy (sessions may close in any order — a closed
        session's bundle is never restored).  A policy installed directly
        via ``service.set_policy`` after this session's last submission is
        respected and not clobbered."""
        if self._closed:
            return
        self._closed = True
        client = self._client
        service = client.service
        stack = client._policy_sessions
        if self in stack:
            stack.remove(self)
        if (
            self._installed_bundle is not None
            and service.policy is self._installed_bundle
        ):
            for other in reversed(stack):
                if other._installed_bundle is not None:
                    other._installed_bundle = service.set_policy(other.policy)
                    client._session_policy = other._installed_bundle
                    return
            service.set_policy(client._base_policy)
            client._session_policy = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MurakkabClient:
    """The stable front door: one client, one service, many sessions."""

    def __init__(
        self,
        service: Optional[AIWorkflowService] = None,
        runtime=None,
        policy=None,
        dynamics=None,
        registry: Optional[WorkloadRegistry] = None,
        keep_warm: bool = True,
        warm_cache=None,
        shards: int = 1,
        shard_backend: Optional[str] = None,
        admission=None,
        fabric=None,
    ):
        """``warm_cache`` (a :class:`~repro.warmstate.WarmStateCache` or a
        directory path) persists warm service state across processes: a
        restarted client skips the profiling sweep and replays recorded
        traces — see :mod:`repro.warmstate`.

        ``shards > 1`` scales the endpoint out: the client fronts a
        :class:`~repro.sharding.ShardedService` partitioning admission
        across that many worker engines (``shard_backend='process'``, the
        default, runs them as parallel worker processes; ``'inline'`` hosts
        them in-process).  The facade is unchanged — handles, sessions, and
        merged stats work identically — subject to the sharded backend's
        restrictions (see :class:`~repro.sharding.ShardedService`).  An
        explicit ``shard_backend`` with ``shards == 1`` fronts a one-shard
        sharded service, whose reports equal a plain service's.

        ``admission`` (an :class:`~repro.admission.AdmissionConfig` or its
        dict form) installs overload admission control on the service:
        interactive submissions past the rate/deadline ladder raise
        :class:`~repro.admission.AdmissionRejected`, and trace runs shed
        degrade-first (see :mod:`repro.admission`).

        ``fabric`` (a :class:`~repro.fabric.FabricTopology`, a registered
        profile name such as ``"congested"``, or its dict form) attaches a
        cluster-interconnect model: dependent stages placed on different
        nodes pay per-payload transfer time on the topology's links, and
        moved/cross-rack bytes and transfer energy are accounted in the
        service stats (see :mod:`repro.fabric`)."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shards > 1 or shard_backend is not None:
            if service is not None or runtime is not None:
                raise ValueError(
                    "a sharded client builds its own sharded service; pass "
                    "either a service/runtime or shards/shard_backend, not both"
                )
            from repro.sharding import ShardedService

            service = ShardedService(
                shards=shards,
                backend=shard_backend or "process",
                policy=policy,
                dynamics=dynamics,
                warm_cache=warm_cache,
                keep_warm=keep_warm,
                registry=registry,
                admission=admission,
                fabric=fabric,
            )
        self.service = service or AIWorkflowService(
            runtime=runtime,
            keep_warm=keep_warm,
            dynamics=dynamics,
            policy=policy,
            warm_cache=warm_cache,
            admission=admission,
            fabric=fabric,
        )
        if service is not None and shards == 1 and shard_backend is None:
            # An explicitly passed service gets the configs installed rather
            # than silently dropped.
            if admission is not None:
                self.service.set_admission(admission)
            if fabric is not None:
                self.service.set_fabric(fabric)
        #: Built lazily: a client submitting only explicit specs/jobs never
        #: pays for registering (validating, materializing) the four
        #: shipped workloads.
        self._registry: Optional[WorkloadRegistry] = registry
        #: The bundle installed at construction; sessions without their own
        #: policy reassert it, so a policy session never leaks into
        #: default-session submissions.
        self._base_policy = self.service.policy
        #: The bundle most recently installed by one of this client's
        #: sessions (None when no session bundle is in force); direct
        #: service.set_policy calls are distinguished from session scope by
        #: identity against this.
        self._session_policy = None
        #: Open policy sessions, in the order their bundles were installed;
        #: closing one reinstates the innermost still-open session's bundle.
        self._policy_sessions: List[Session] = []
        self._default_session = Session(self)

    @property
    def registry(self) -> WorkloadRegistry:
        """The client's workload registry (the shipped workloads by default,
        built on first use)."""
        if self._registry is None:
            self._registry = default_registry()
        return self._registry

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def session(
        self,
        policy=None,
        dynamics=None,
        constraints: ConstraintsLike = None,
        quality_target: Optional[float] = None,
        job_prefix: str = "",
    ) -> Session:
        """Open a scoped execution context over this client's service.

        ``policy``/``constraints``/``quality_target`` apply only to the
        session's submissions; ``dynamics``, once attached, injects events
        into the shared engine and stays for the service's lifetime (see
        :class:`Session`).
        """
        return Session(
            self,
            policy=policy,
            dynamics=dynamics,
            constraints=constraints,
            quality_target=quality_target,
            job_prefix=job_prefix,
        )

    # ------------------------------------------------------------------ #
    # Submission (default session)
    # ------------------------------------------------------------------ #
    def submit(self, workload: WorkloadLike, **kwargs) -> JobHandle:
        """Submit one workload with no session-scoped defaults."""
        return self._default_session.submit(workload, **kwargs)

    def submit_trace(self, arrivals, **options) -> TraceHandle:
        """Serve an arrival trace against this client's workload registry."""
        return self._default_session.submit_trace(arrivals, **options)

    # ------------------------------------------------------------------ #
    # Workload registry
    # ------------------------------------------------------------------ #
    def register_workload(self, spec: WorkflowSpec, name: str = "") -> str:
        """Validate and register a spec as a named, trace-servable workload."""
        return self.registry.register_spec(spec, name=name)

    def workloads(self) -> List[str]:
        return self.registry.names()

    def workload_spec(self, name: str) -> Optional[WorkflowSpec]:
        return self.registry.spec(name)

    @staticmethod
    def validate(spec: WorkflowSpec) -> List[SpecIssue]:
        """Every finding submission would reject ``spec`` for (no raise).

        Runs the full eager validation — structural checks plus the
        decomposition cross-check — so an empty result really means
        :meth:`submit`/:meth:`register_workload` will accept the spec.
        """
        from repro.spec.compiler import spec_issues

        return spec_issues(spec)

    # ------------------------------------------------------------------ #
    # Service operations
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ServiceStats:
        return self.service.stats

    def register_agent(self, implementation) -> None:
        """Make a new model/tool available to every subsequent job (it is
        profiled immediately; no submitted workload needs to change)."""
        self.service.register_agent(implementation)

    def retire_agent(self, name: str) -> None:
        self.service.retire_agent(name)

    def available_agents(self) -> List[str]:
        return self.service.available_agents()

    def warm_agents(self) -> List[str]:
        return self.service.warm_agents()

    def shutdown(self) -> None:
        self.service.shutdown()

    def __enter__(self) -> "MurakkabClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
