"""SLO admission control: the seam in front of job submission.

The service so far admits every arrival unconditionally; under offered load
beyond capacity that silently inflates queueing delay until every deadline
is blown.  This module adds the missing control-plane decision — *should
this arrival run at all, and at what quality?* — as a deterministic ladder
evaluated per arrival, before any engine state is touched:

1. **Rate limiting** — a global token bucket plus optional per-tenant
   (per-workload) buckets.  Priority classes see different *reserve
   floors* on the same buckets: low-priority traffic runs dry first, so a
   high-priority tenant is never starved by a bulk tenant's burst.
2. **Deadline feasibility** — given the current backlog watermark and the
   workload's observed steady-state makespan, an arrival whose deadline
   SLO cannot be met is shed *now* instead of admitted-then-violated.
3. **Degrade before drop** — when full quality does not fit the deadline,
   the job is recompiled at a reduced quality target (the
   ``QualityAdaptationPolicy`` machinery then plans the cheaper variant);
   only when even the degraded variant is infeasible is the job rejected.
4. **Defer before drop** — rate-limited arrivals with a feasible deadline
   wait for tokens (bounded by ``max_defer_s`` patience) instead of being
   dropped outright; the bucket goes into debt so subsequent arrivals see
   the true contention.

Every decision is a pure function of the arrival sequence — no wall clock,
no randomness — so a captured trace replays to the byte (see
:mod:`repro.capture`).  Tokens are only spent on admitted work (admit,
degrade, defer); a rejected arrival consumes no budget, so rejection never
penalises the traffic that *is* served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.core.constraints import DEFAULT_PRIORITY, PRIORITY_CLASSES

#: Admission outcomes, in counter precedence order.  ``admit`` and
#: ``degrade``/``defer`` are mutually exclusive per arrival: a degraded or
#: deferred job is admitted work, counted once under its shed bucket.
OUTCOMES: Tuple[str, ...] = ("admit", "degrade", "defer", "reject")

#: Default per-class reserve floors as fractions of the bucket burst.
#: A class can only draw tokens *above* its floor, so under sustained
#: overload ``low`` runs dry first and ``high`` drains the whole bucket.
DEFAULT_RESERVES: Tuple[Tuple[str, float], ...] = (
    ("high", 0.0),
    ("normal", 0.1),
    ("low", 0.3),
)


class AdmissionRejected(RuntimeError):
    """Raised by the interactive submit path when an arrival is shed."""

    def __init__(self, decision: "AdmissionDecision", job_id: str = ""):
        self.decision = decision
        self.job_id = job_id
        scope = f" job {job_id!r}" if job_id else ""
        super().__init__(
            f"admission rejected{scope}: {decision.reason or 'over capacity'}"
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """The declarative admission bundle (frozen, picklable — it ships to
    shard worker processes next to the policy bundle).

    ``rate_per_s``/``burst`` parameterise the global token bucket;
    ``tenant_rate_per_s`` (when set) adds an independent bucket per
    workload so one tenant's burst cannot exhaust everyone's budget.
    """

    #: Global admitted-job budget: sustained jobs/s and burst depth.
    rate_per_s: float = 1.0
    burst: float = 4.0
    #: Per-tenant (per-workload) budget; ``None`` disables tenant buckets.
    tenant_rate_per_s: Optional[float] = None
    tenant_burst: Optional[float] = None
    #: How long a rate-limited arrival may wait for tokens before it is
    #: rejected instead of deferred (0 = shed immediately, never defer).
    max_defer_s: float = 0.0
    #: Degrade-before-drop: recompile deadline-infeasible jobs at this
    #: quality target instead of rejecting them outright.
    degrade: bool = True
    degraded_quality: float = 0.0
    #: Planning objective for the degraded variant (a
    #: :class:`~repro.core.constraints.Constraint` value such as
    #: ``"min_latency"``); ``None`` keeps the spec's own objectives.  A
    #: latency-first degraded plan is what actually buys deadline slack —
    #: merely lowering the quality floor rarely changes a cost-optimal plan.
    degraded_constraint: Optional[str] = None
    #: Deadline applied to specs that declare none (``None`` = best effort,
    #: such arrivals skip the feasibility check).
    default_deadline_s: Optional[float] = None
    #: Calibrated cost priors: conservative makespan stand-ins used while a
    #: workload's (full / degraded) steady-state cost is still unobserved.
    #: ``None`` keeps the optimistic default — unknown cost never sheds —
    #: which can admit jobs that then blow their deadline; a calibrated
    #: prior (e.g. the capacity probe's makespan) closes that hole.
    estimate_prior_s: Optional[float] = None
    degraded_prior_s: Optional[float] = None
    #: Per-class reserve floors (fraction of burst); see DEFAULT_RESERVES.
    priority_reserves: Tuple[Tuple[str, float], ...] = DEFAULT_RESERVES

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive: {self.rate_per_s}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive: {self.burst}")
        if self.tenant_rate_per_s is not None and self.tenant_rate_per_s <= 0:
            raise ValueError(
                f"tenant_rate_per_s must be positive: {self.tenant_rate_per_s}"
            )
        if self.max_defer_s < 0:
            raise ValueError(f"max_defer_s must be non-negative: {self.max_defer_s}")
        if not 0.0 <= self.degraded_quality <= 1.0:
            raise ValueError(
                f"degraded_quality must be in [0, 1]: {self.degraded_quality}"
            )
        if self.degraded_constraint is not None:
            from repro.core.constraints import Constraint

            try:
                Constraint(self.degraded_constraint)
            except ValueError:
                raise ValueError(
                    f"unknown degraded_constraint: {self.degraded_constraint!r}"
                ) from None
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive: {self.default_deadline_s}"
            )
        for label, prior in (
            ("estimate_prior_s", self.estimate_prior_s),
            ("degraded_prior_s", self.degraded_prior_s),
        ):
            if prior is not None and prior <= 0:
                raise ValueError(f"{label} must be positive: {prior}")
        for name, fraction in self.priority_reserves:
            if name not in PRIORITY_CLASSES:
                raise ValueError(f"unknown priority class in reserves: {name!r}")
            if not 0.0 <= fraction < 1.0:
                raise ValueError(f"reserve fraction must be in [0, 1): {fraction}")

    def reserve_for(self, priority: str) -> float:
        """The reserve floor fraction for a priority class (default 0)."""
        for name, fraction in self.priority_reserves:
            if name == priority:
                return fraction
        return 0.0

    def fingerprint(self) -> Dict[str, object]:
        """Provenance payload (also keys capture-file compatibility)."""
        return {
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "tenant_rate_per_s": self.tenant_rate_per_s,
            "tenant_burst": self.tenant_burst,
            "max_defer_s": self.max_defer_s,
            "degrade": self.degrade,
            "degraded_quality": self.degraded_quality,
            "degraded_constraint": self.degraded_constraint,
            "default_deadline_s": self.default_deadline_s,
            "estimate_prior_s": self.estimate_prior_s,
            "degraded_prior_s": self.degraded_prior_s,
            "priority_reserves": [list(pair) for pair in self.priority_reserves],
        }

    def to_dict(self) -> Dict[str, object]:
        return self.fingerprint()

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AdmissionConfig":
        reserves = data.get("priority_reserves", DEFAULT_RESERVES)
        return cls(
            rate_per_s=float(data.get("rate_per_s", 1.0)),
            burst=float(data.get("burst", 4.0)),
            tenant_rate_per_s=(
                None
                if data.get("tenant_rate_per_s") is None
                else float(data["tenant_rate_per_s"])  # type: ignore[index]
            ),
            tenant_burst=(
                None
                if data.get("tenant_burst") is None
                else float(data["tenant_burst"])  # type: ignore[index]
            ),
            max_defer_s=float(data.get("max_defer_s", 0.0)),
            degrade=bool(data.get("degrade", True)),
            degraded_quality=float(data.get("degraded_quality", 0.0)),
            degraded_constraint=(
                None
                if data.get("degraded_constraint") is None
                else str(data["degraded_constraint"])  # type: ignore[index]
            ),
            default_deadline_s=(
                None
                if data.get("default_deadline_s") is None
                else float(data["default_deadline_s"])  # type: ignore[index]
            ),
            estimate_prior_s=(
                None
                if data.get("estimate_prior_s") is None
                else float(data["estimate_prior_s"])  # type: ignore[index]
            ),
            degraded_prior_s=(
                None
                if data.get("degraded_prior_s") is None
                else float(data["degraded_prior_s"])  # type: ignore[index]
            ),
            priority_reserves=tuple(
                (str(name), float(fraction)) for name, fraction in reserves
            ),
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """One arrival's verdict from the admission ladder."""

    #: ``admit`` | ``degrade`` | ``defer`` | ``reject``.
    outcome: str
    #: Token wait the job must absorb before it may start: positive on a
    #: defer, and on a degrade whose token was spent into debt (zero on a
    #: plain admit and on a reject).
    wait_s: float = 0.0
    #: Why the arrival was shed: ``rate`` or ``deadline`` (empty on admit).
    reason: str = ""
    #: The priority class the decision was evaluated under.
    priority: str = DEFAULT_PRIORITY

    @property
    def admitted(self) -> bool:
        return self.outcome != "reject"


@dataclass
class TokenBucket:
    """A deterministic token bucket with linear refill and bounded debt.

    ``level`` may go negative (debt) when deferred admissions spend ahead
    of refill; the debt is what makes later arrivals observe the true
    contention and queue behind earlier deferrals.
    """

    rate: float
    burst: float
    level: float = field(init=False, default=0.0)
    at: Optional[float] = field(init=False, default=None)

    def _refill(self, now: float) -> None:
        if self.at is None:
            # First observation anchors the bucket at a full burst; trace
            # epochs are engine-relative, so there is no time-zero bias.
            self.at = now
            self.level = self.burst
            return
        if now > self.at:
            self.level = min(self.burst, self.level + (now - self.at) * self.rate)
            self.at = now

    def wait_for(self, now: float, floor: float = 0.0) -> float:
        """Seconds until one token is drawable above ``floor`` (0 = now)."""
        self._refill(now)
        deficit = (floor + 1.0) - self.level
        if deficit <= 0.0:
            return 0.0
        return deficit / self.rate

    def spend(self, now: float) -> None:
        """Draw one token (possibly into debt — callers bound the wait)."""
        self._refill(now)
        self.level -= 1.0


class AdmissionController:
    """Evaluates the admission ladder per arrival.

    Stateful only in its token buckets; the deadline-feasibility inputs
    (backlog watermark, steady-state makespan estimates) are supplied by
    the caller per decision, so the controller composes with both the
    trace path (loadgen group estimates) and the interactive submit path.

    One controller models one admission epoch.  The trace path builds a
    fresh controller per ``submit_trace`` call, which is what makes a
    captured trace replay byte-identically against a warm service.
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self._global = TokenBucket(rate=config.rate_per_s, burst=config.burst)
        self._tenants: Dict[str, TokenBucket] = {}
        #: Outcome counters for provenance (the TraceReport keeps its own).
        self.counters: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}

    def _tenant_bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.config.tenant_rate_per_s is None:
            return None
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                rate=self.config.tenant_rate_per_s,
                burst=self.config.tenant_burst
                if self.config.tenant_burst is not None
                else self.config.burst,
            )
            self._tenants[tenant] = bucket
        return bucket

    def decide(
        self,
        tenant: str,
        priority: str,
        arrival_at: float,
        deadline_s: Optional[float] = None,
        estimate_s: Optional[float] = None,
        degraded_estimate_s: Optional[float] = None,
        backlog_until: float = 0.0,
    ) -> AdmissionDecision:
        """Run the ladder for one arrival and spend tokens on admission.

        ``estimate_s`` is the observed full-quality makespan for this
        tenant's workload (``None`` = not yet observed → optimistic
        admit); ``degraded_estimate_s`` the degraded variant's, when known.
        ``backlog_until`` is the FIFO watermark: the earliest time the
        service can start new work.
        """
        if priority not in PRIORITY_CLASSES:
            raise ValueError(f"unknown priority {priority!r}")
        floor = self.config.reserve_for(priority) * self.config.burst
        waits = [self._global.wait_for(arrival_at, floor)]
        tenant_bucket = self._tenant_bucket(tenant)
        if tenant_bucket is not None:
            tenant_floor = self.config.reserve_for(priority) * tenant_bucket.burst
            waits.append(tenant_bucket.wait_for(arrival_at, tenant_floor))
        wait = max(waits)
        if wait > self.config.max_defer_s:
            return self._count(
                AdmissionDecision(outcome="reject", reason="rate", priority=priority)
            )

        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if estimate_s is None:
            estimate_s = self.config.estimate_prior_s
        if degraded_estimate_s is None:
            degraded_estimate_s = self.config.degraded_prior_s
        degraded = False
        if deadline_s is not None and estimate_s is not None:
            start = max(arrival_at + wait, backlog_until)
            slack = (arrival_at + deadline_s) - start
            if estimate_s > slack:
                # Full quality misses the SLO: degrade if that plausibly
                # fits (unknown degraded cost = optimistic), else shed.
                fits_degraded = self.config.degrade and (
                    degraded_estimate_s is None or degraded_estimate_s <= slack
                )
                if not fits_degraded:
                    return self._count(
                        AdmissionDecision(
                            outcome="reject", reason="deadline", priority=priority
                        )
                    )
                degraded = True

        self._global.spend(arrival_at)
        if tenant_bucket is not None:
            tenant_bucket.spend(arrival_at)
        if degraded:
            return self._count(
                AdmissionDecision(
                    outcome="degrade", wait_s=wait, reason="deadline", priority=priority
                )
            )
        if wait > 0.0:
            return self._count(
                AdmissionDecision(
                    outcome="defer", wait_s=wait, reason="rate", priority=priority
                )
            )
        return self._count(AdmissionDecision(outcome="admit", priority=priority))

    def _count(self, decision: AdmissionDecision) -> AdmissionDecision:
        self.counters[decision.outcome] += 1
        return decision

    def snapshot(self) -> Dict[str, object]:
        """Provenance: config fingerprint plus outcome counters."""
        return {
            "config": self.config.fingerprint(),
            "counters": dict(self.counters),
        }


def admission_of(
    value: Union[AdmissionConfig, Mapping[str, object], None]
) -> Optional[AdmissionConfig]:
    """Normalise the ways callers can hand over an admission bundle."""
    if value is None or isinstance(value, AdmissionConfig):
        return value
    if isinstance(value, Mapping):
        return AdmissionConfig.from_dict(value)
    raise TypeError(f"cannot interpret admission config: {value!r}")
