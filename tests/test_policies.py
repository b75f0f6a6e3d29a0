"""Tests for the pluggable control-plane policy layer (``repro.policies``).

Covers the acceptance bar for the policy refactor:

* the ``default`` bundle is byte-identical to the pre-refactor behaviour —
  differentially against the unoptimized reference path on a frozen-seed
  100-job trace;
* at least three bundles produce distinct latency/energy trade-offs on the
  newsfeed workload (surfaced by ``python -m repro compare-policies``);
* plan caches and steady-state trace memos are keyed by the policy
  fingerprint, so two policies on one service never share cached decisions;
* each seam (placement, scheduling, mapping, quality adaptation) actually
  delegates through the installed policy.
"""

import pytest

from repro.agents.base import AgentInterface, HardwareConfig, SEQUENTIAL_MODE
from repro.agents.profiles import ExecutionProfile, ProfileKey
from repro.baselines.unoptimized import unoptimized_runtime
from repro.cli import COMPARISON_NEWSFEED_POSTS, main
from repro.cluster.allocator import ResourceRequest
from repro.cluster.node import Node
from repro.core.constraints import ConstraintSet, MIN_COST
from repro.core.execution import ServerPool
from repro.core.planner import ConfigurationPlanner, PlannerOverride
from repro.core.quality_control import QualityController
from repro.core.runtime import MurakkabRuntime
from repro.policies import (
    BestFitPolicy,
    DefaultSchedulingPolicy,
    PolicyBundle,
    SpotAwarePlacementPolicy,
    WorkflowAwarePolicy,
    available_bundles,
    get_bundle,
    pinned_bundle,
    resolve_bundle,
    validate_registry,
)
from repro.profiling.store import ProfileStore
from repro.service import AIWorkflowService
from repro.workflows.newsfeed import newsfeed_job
from repro.workloads.arrival import uniform_arrivals
from repro.workloads.posts import generate_posts

from repro.loadgen import ServiceLoadGenerator, WorkloadRegistry, default_registry

REQUIRED_BUNDLES = ("default", "latency_first", "energy_first", "spot_aware")


@pytest.fixture(scope="module")
def posts():
    return generate_posts(count=COMPARISON_NEWSFEED_POSTS)


def _newsfeed_registry(posts):
    registry = WorkloadRegistry()
    registry.register("newsfeed", lambda job_id: newsfeed_job(posts=posts, job_id=job_id))
    return registry


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


def test_registry_offers_the_stock_bundles():
    names = available_bundles()
    for required in REQUIRED_BUNDLES:
        assert required in names


def test_registry_validates():
    validate_registry()


def test_bundle_fingerprints_are_unique():
    fingerprints = {get_bundle(name).fingerprint() for name in available_bundles()}
    assert len(fingerprints) == len(available_bundles())


def test_unknown_bundle_raises():
    with pytest.raises(KeyError):
        get_bundle("frobnicate")
    with pytest.raises(TypeError):
        resolve_bundle(42)


def test_resolve_bundle_normalises():
    assert resolve_bundle(None).name == "default"
    assert resolve_bundle("latency_first").name == "latency_first"
    bundle = get_bundle("energy_first")
    assert resolve_bundle(bundle) is bundle


def test_bundle_requires_typed_policies():
    base = get_bundle("default")
    with pytest.raises(TypeError):
        PolicyBundle(
            name="broken",
            placement=object(),  # type: ignore[arg-type]
            scheduling=base.scheduling,
            quality=base.quality,
        )


def test_pinned_bundle_changes_fingerprint_and_keeps_base_policies():
    override = {
        AgentInterface.SPEECH_TO_TEXT: PlannerOverride(config=HardwareConfig(gpus=1))
    }
    pinned = pinned_bundle("pinned-stt", override)
    default = get_bundle("default")
    assert pinned.fingerprint() != default.fingerprint()
    assert type(pinned.scheduling) is type(default.scheduling)
    assert pinned.overrides == override


def test_pinned_bundle_overrides_reach_every_serving_mode():
    """Regression: a bundle-pinned agent is deployed whichever way a trace
    is served, multiplex as well as grouped, with identical results on
    arrivals far enough apart never to overlap."""
    bundle = pinned_bundle(
        "pin",
        {AgentInterface.TEXT_GENERATION: PlannerOverride(agent_name="llama-textgen")},
    )
    arrivals = uniform_arrivals(3, interval_s=10.0, workloads=("newsfeed",))
    reports = {}
    for mode in ("grouped", "multiplex"):
        service = AIWorkflowService(policy=bundle)
        reports[mode] = service.submit_trace(
            arrivals, registry=default_registry(), mode=mode
        )
        assert service._pool.signature() == (("llama-textgen", "1xA100"),), mode
    grouped, multiplex = reports["grouped"], reports["multiplex"]
    assert multiplex.jobs == grouped.jobs == 3
    assert multiplex.energy_wh.total == pytest.approx(grouped.energy_wh.total)
    assert multiplex.makespan_s.mean == pytest.approx(grouped.makespan_s.mean)


# --------------------------------------------------------------------- #
# Byte-identity of the default bundle
# --------------------------------------------------------------------- #


def test_default_bundle_submission_is_byte_identical_to_no_policy(posts):
    plain = MurakkabRuntime().submit(newsfeed_job(posts=posts, job_id="ident"))
    policied = MurakkabRuntime(policy="default").submit(
        newsfeed_job(posts=posts, job_id="ident")
    )
    assert policied.plan.describe() == plain.plan.describe()
    assert tuple(policied.trace) == tuple(plain.trace)
    assert policied.summary() == plain.summary()


def test_default_bundle_trace_matches_unoptimized_baseline_100_jobs(posts):
    """Differential acceptance test: a frozen-seed 100-job newsfeed trace
    under the default bundle is byte-identical, job for job, to the serial
    pre-optimization (and pre-policy) submission loop."""
    arrivals = uniform_arrivals(100, interval_s=1.0, workloads=("newsfeed",))

    reference = unoptimized_runtime()
    pool = ServerPool(reference.cluster_manager, reference.library)
    expected = {}
    for index in range(len(arrivals)):
        result = reference.submit(
            newsfeed_job(posts=posts, job_id=f"job-{index}"), server_pool=pool
        )
        expected[result.job_id] = result.compact_summary()
    reference_plan = result.plan.describe()

    generator = ServiceLoadGenerator(
        AIWorkflowService(policy="default"), _newsfeed_registry(posts)
    )
    report = generator.run(
        arrivals,
        job_ids=lambda index, workload: f"job-{index}",
        max_per_job_records=None,
    )
    assert report.jobs == 100
    assert report.replayed_jobs > 0  # the memoized fast path actually engaged
    # Metrics are compared at 12 significant digits, the loadgen's own
    # byte-identity convention: identical executions at different absolute
    # engine times accumulate ~1e-15 relative interval-arithmetic jitter.
    digits = lambda v: float(f"{v:.12g}")  # noqa: E731
    served = generator.service.stats.per_job
    assert served.keys() == expected.keys()
    for job_id, record in expected.items():
        assert {k: digits(v) for k, v in served[job_id].items()} == {
            k: digits(v) for k, v in record.items()
        }, job_id
    assert generator.last_probe_result.plan.describe() == reference_plan


# --------------------------------------------------------------------- #
# Distinct trade-offs
# --------------------------------------------------------------------- #


def test_at_least_three_bundles_produce_distinct_tradeoffs(posts):
    points = {}
    for name in REQUIRED_BUNDLES:
        result = MurakkabRuntime(policy=name).submit(
            newsfeed_job(posts=posts, job_id="tradeoff")
        )
        points[name] = (round(result.makespan_s, 9), round(result.energy_wh, 9))
    assert len(set(points.values())) >= 3
    # spot_aware only diverges under spot dynamics; on the frozen testbed it
    # must match the default bundle exactly.
    assert points["spot_aware"] == points["default"]


def test_compare_policies_cli_prints_every_bundle(capsys):
    exit_code = main(
        ["compare-policies", "--rate", "0.1", "--horizon", "40", "--workloads", "newsfeed"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    for name in REQUIRED_BUNDLES:
        assert name in output
    assert "Mean latency (s)" in output


def test_loadtest_cli_accepts_policy(capsys):
    exit_code = main(
        [
            "loadtest",
            "--rate",
            "0.1",
            "--horizon",
            "30",
            "--workloads",
            "newsfeed",
            "--policy",
            "latency_first",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "latency_first" in output
    assert "jobs" in output


# --------------------------------------------------------------------- #
# Cache isolation between policies
# --------------------------------------------------------------------- #


def test_plan_cache_is_never_shared_across_policies(posts):
    """Regression: one service switching bundles must re-decide, not replay
    the other policy's cached plans (the fingerprint is in the cache key)."""
    lf_reference = (
        MurakkabRuntime(policy="latency_first")
        .submit(newsfeed_job(posts=posts, job_id="ref"))
        .plan.describe()
    )

    service = AIWorkflowService()  # starts under the stock behaviour
    default_plan = service.submit_job(
        newsfeed_job(posts=posts, job_id="first")
    ).plan.describe()
    service.set_policy("latency_first")
    switched_plan = service.submit_job(
        newsfeed_job(posts=posts, job_id="second")
    ).plan.describe()

    assert switched_plan == lf_reference
    assert switched_plan != default_plan
    # And switching back re-serves the original decisions (still cached
    # under the default fingerprint).
    service.set_policy("default")
    back_plan = service.submit_job(
        newsfeed_job(posts=posts, job_id="third")
    ).plan.describe()
    assert back_plan == default_plan


def test_trace_memos_are_never_shared_across_policies(posts):
    """A warm service serving the same trace under two bundles must produce
    each bundle's own results (steady-state memos carry the fingerprint)."""
    arrivals = uniform_arrivals(12, interval_s=1.0, workloads=("newsfeed",))
    registry = _newsfeed_registry(posts)

    fresh = AIWorkflowService(policy="latency_first")
    expected = fresh.submit_trace(arrivals, registry=registry)

    mixed = AIWorkflowService()
    under_default = mixed.submit_trace(arrivals, registry=registry)
    under_latency = mixed.submit_trace(
        arrivals, registry=registry, policy="latency_first"
    )

    assert under_latency.makespan_s.mean == pytest.approx(expected.makespan_s.mean)
    assert under_latency.energy_wh.total == pytest.approx(expected.energy_wh.total)
    assert under_latency.makespan_s.mean != under_default.makespan_s.mean


def test_planner_cache_keys_include_policy_fingerprint(profile_store, library):
    planner = ConfigurationPlanner(profile_store, library)
    constraint_set = ConstraintSet((MIN_COST,))
    first = planner.plan_interface(AgentInterface.TEXT_GENERATION, constraint_set)
    planner.scheduling_policy = get_bundle("latency_first").scheduling
    second = planner.plan_interface(AgentInterface.TEXT_GENERATION, constraint_set)
    assert planner.plan_cache_info["size"] == 2
    assert planner.plan_cache_info["misses"] == 2
    assert first.profile.latency_s >= second.profile.latency_s


# --------------------------------------------------------------------- #
# Seam-level behaviour
# --------------------------------------------------------------------- #


def test_spot_aware_placement_avoids_spot_nodes_for_model_owners():
    durable = Node("server0", gpu_count=8, cpu_cores=64)
    spot = Node("spot:w0", gpu_count=1, cpu_cores=16)
    candidates = [durable, spot]

    model_request = ResourceRequest(owner="model:whisper", gpus=1)
    # Best-fit (the default fallback) packs onto the smaller spot node...
    assert BestFitPolicy().choose(model_request, candidates, []) is spot
    assert WorkflowAwarePolicy().choose(model_request, candidates, []) is spot
    # ...spot-aware refuses to put a durable serving instance there.
    policy = SpotAwarePlacementPolicy()
    assert policy.choose(model_request, candidates, []) is durable
    # Short-lived task lanes may still harvest spot capacity.
    lane_request = ResourceRequest(owner="workflow-1", cpu_cores=4)
    assert policy.choose(lane_request, candidates, []) is spot
    # With only spot capacity left, a spot node beats not placing at all.
    assert policy.choose(model_request, [spot], []) is spot


def test_quality_policies_pick_different_upgrades():
    """The controller delegates upgrade choice: cheapest for the default
    policy, lowest added latency for latency-first."""
    store = ProfileStore()
    interface = AgentInterface.TEXT_GENERATION

    def profile(name, latency, cost, quality, energy=0.01):
        return ExecutionProfile(
            key=ProfileKey(name, HardwareConfig(gpus=1), SEQUENTIAL_MODE),
            interface=interface,
            latency_s=latency,
            power_w=100.0,
            energy_wh=energy,
            cost=cost,
            quality=quality,
        )

    current = profile("base", latency=1.0, cost=0.01, quality=0.7)
    cheap_slow = profile("cheap-slow", latency=5.0, cost=0.02, quality=0.95)
    fast_pricey = profile("fast-pricey", latency=1.5, cost=0.05, quality=0.95)
    for p in (current, cheap_slow, fast_pricey):
        store.add(p)

    from repro.core.planner import ExecutionPlan, PlanAssignment

    plan = ExecutionPlan(constraint_set=ConstraintSet((MIN_COST,)))
    plan.add(
        PlanAssignment(
            interface=interface,
            agent_name=current.agent_name,
            config=current.config,
            mode=current.mode,
            profile=current,
        )
    )

    default_choice = QualityController(store).propose_upgrade(plan, quality_target=0.9)
    latency_choice = QualityController(
        store, policy=get_bundle("latency_first").quality
    ).propose_upgrade(plan, quality_target=0.9)

    assert default_choice.upgraded_agent == "cheap-slow"
    assert latency_choice.upgraded_agent == "fast-pricey"
    assert latency_choice.extra_latency_s < default_choice.extra_latency_s


def test_runtime_quality_controller_uses_bundle_policy():
    runtime = MurakkabRuntime(policy="energy_first")
    controller = runtime.quality_controller()
    assert controller.policy.name == "EnergyFirstQualityPolicy"
    plain = MurakkabRuntime().quality_controller()
    assert plain.policy.name == "DefaultQualityPolicy"
