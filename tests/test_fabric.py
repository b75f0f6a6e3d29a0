"""Tests for the network-fabric subsystem (``repro.fabric``).

The tentpole contracts:

* the ``uniform`` profile (and any zero-cost topology) is **byte-identical**
  to running with no fabric attached — proven differentially on a 100-job
  newsfeed trace through both the column accounting and the per-event
  reference (the oracle's ``ReferenceLoadGenerator``);
* routing is deterministic (inverse-bandwidth Dijkstra with lexicographic
  tie-breaks, sha256 node hashing) and JSON round-trips fingerprint-exactly;
* on the ``congested`` profile the ``locality_aware`` bundle moves strictly
  fewer cross-rack bytes AND achieves lower mean job latency than
  ``default`` on the chatty two-stage video workload;
* transfer accounting (events, bytes, cross-rack bytes, seconds, Wh) flows
  executor -> JobResult -> ServiceStats/TraceReport with every key gated on
  ``transfer_events`` so fabric-free reports keep their byte surface.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.unoptimized import ReferenceLoadGenerator
from repro.cluster.cluster import paper_testbed
from repro.core.runtime import MurakkabRuntime
from repro.fabric import (
    UNLIMITED,
    FabricError,
    FabricLink,
    FabricTopology,
    Rack,
    UnknownFabricError,
    available_fabrics,
    fabric_of,
    get_fabric,
    validate_profiles,
)
from repro.loadgen import ServiceLoadGenerator
from repro.service import AIWorkflowService, ServiceStats
from repro.spec import InputsSpec, compile_spec
from repro.workflows.newsfeed import newsfeed_spec
from repro.workflows.video_understanding import video_understanding_spec
from repro.workloads.arrival import JobArrival
from repro.workloads.posts import generate_posts
from repro.workloads.video import generate_videos


# --------------------------------------------------------------------- #
# Topology construction and validation
# --------------------------------------------------------------------- #


def two_rack_fabric(link_gbps=1.0, uplink_gbps=25.0, link_latency=5e-3):
    return FabricTopology(
        name="two-rack",
        racks=(
            Rack("r0", uplink_gbps=uplink_gbps, uplink_latency_s=5e-4),
            Rack("r1", uplink_gbps=uplink_gbps, uplink_latency_s=5e-4),
        ),
        links=(FabricLink("r0", "r1", bandwidth_gbps=link_gbps, latency_s=link_latency),),
        assignments={"a": "r0", "b": "r1", "c": "r0"},
    )


def test_topology_validation_rejects_malformed():
    with pytest.raises(FabricError):
        FabricTopology(name="", racks=(Rack("r0"),))
    with pytest.raises(FabricError):
        FabricTopology(name="empty", racks=())
    with pytest.raises(FabricError):
        FabricTopology(name="dup", racks=(Rack("r0"), Rack("r0")))
    with pytest.raises(FabricError):
        Rack("r0", uplink_gbps=0.0)
    with pytest.raises(FabricError):
        FabricLink("a", "a")
    with pytest.raises(FabricError):
        FabricLink("a", "b", bandwidth_gbps=-1.0)
    # Link endpoint that is neither rack nor switch.
    with pytest.raises(FabricError):
        FabricTopology(
            name="dangling",
            racks=(Rack("r0"), Rack("r1")),
            links=(FabricLink("r0", "ghost"),),
        )
    # Node pinned to an unknown rack.
    with pytest.raises(FabricError):
        FabricTopology(
            name="badpin", racks=(Rack("r0"),), assignments={"n": "nope"}
        )


def test_disconnected_racks_fail_at_construction():
    with pytest.raises(FabricError):
        FabricTopology(name="split", racks=(Rack("r0"), Rack("r1")))


def test_json_round_trip_is_fingerprint_exact():
    fabric = two_rack_fabric()
    payload = json.loads(json.dumps(fabric.to_dict()))
    rebuilt = FabricTopology.from_dict(payload)
    assert rebuilt.fingerprint() == fabric.fingerprint()
    assert rebuilt.to_dict() == fabric.to_dict()
    # UNLIMITED serializes as JSON null and comes back as UNLIMITED.
    uniform = get_fabric("uniform")
    assert uniform.to_dict()["racks"][0]["uplink_gbps"] is None
    assert FabricTopology.from_dict(uniform.to_dict()).racks[0].uplink_gbps == UNLIMITED


def test_fingerprint_independent_of_assignment_insertion_order():
    base = two_rack_fabric()
    flipped = FabricTopology(
        name="two-rack",
        racks=base.racks,
        links=base.links,
        assignments={"c": "r0", "b": "r1", "a": "r0"},
    )
    assert flipped.fingerprint() == base.fingerprint()


def test_fabric_of_normalises_every_form():
    fabric = two_rack_fabric()
    assert fabric_of(None) is None
    assert fabric_of(fabric) is fabric
    assert fabric_of("uniform").name == "uniform"
    assert fabric_of(fabric.to_dict()).fingerprint() == fabric.fingerprint()
    with pytest.raises(TypeError):
        fabric_of(42)


def test_unknown_fabric_lists_registered_profiles():
    with pytest.raises(UnknownFabricError) as excinfo:
        get_fabric("nope")
    message = str(excinfo.value)
    for name in available_fabrics():
        assert name in message
    assert isinstance(excinfo.value, KeyError)


def test_registered_profiles_validate_against_goldens():
    validate_profiles("tests/data/fabrics")


# --------------------------------------------------------------------- #
# Node -> rack mapping and routing
# --------------------------------------------------------------------- #


def test_rack_of_pins_and_hash_fallback():
    fabric = two_rack_fabric()
    assert fabric.rack_of("a") == "r0"
    assert fabric.rack_of("b") == "r1"
    # Unpinned nodes hash deterministically (sha256, not PYTHONHASHSEED).
    first = fabric.rack_of("unpinned-node")
    assert first == two_rack_fabric().rack_of("unpinned-node")


def test_routing_prefers_fat_links():
    # Diamond: r0 -> thin -> r1 and r0 -> s -> r1 via fat links.
    fabric = FabricTopology(
        name="diamond",
        racks=(Rack("r0", uplink_gbps=100.0), Rack("r1", uplink_gbps=100.0)),
        switches=("s",),
        links=(
            FabricLink("r0", "r1", bandwidth_gbps=1.0, latency_s=0.0),
            FabricLink("r0", "s", bandwidth_gbps=100.0, latency_s=0.0),
            FabricLink("s", "r1", bandwidth_gbps=100.0, latency_s=0.0),
        ),
    )
    _, bottleneck = fabric.route("r0", "r1")
    # 1/100 + 1/100 < 1/1: the two-hop fat path wins.
    assert bottleneck == 100.0


def test_transfer_time_model():
    fabric = two_rack_fabric(link_gbps=1.0, uplink_gbps=25.0, link_latency=5e-3)
    # Same node: free.
    assert fabric.transfer_time("a", "a", 10**9) == 0.0
    # Zero payload: free.
    assert fabric.transfer_time("a", "b", 0) == 0.0
    # Same rack ("a" and "c" are both on r0): two uplink latencies plus
    # serialization through the 25 Gbps uplink.
    same_rack = fabric.transfer_time("a", "c", 10**9)
    assert same_rack == pytest.approx(2 * 5e-4 + 8e9 / 25e9)
    # Cross rack: both uplinks + link latency, at the 1 Gbps bottleneck.
    cross = fabric.transfer_time("a", "b", 10**9)
    assert cross == pytest.approx(2 * 5e-4 + 5e-3 + 8e9 / 1e9)
    assert cross > same_rack
    assert fabric.is_cross_rack("a", "b") and not fabric.is_cross_rack("a", "c")


def test_hop_cost_orders_localities():
    fabric = two_rack_fabric()
    assert fabric.hop_cost("a", "a") == 0.0
    assert 0.0 < fabric.hop_cost("a", "c") < fabric.hop_cost("a", "b")


def test_transfer_energy_scales_with_bytes():
    fabric = get_fabric("congested")
    assert fabric.transfer_energy_wh(0) == 0.0
    assert fabric.transfer_energy_wh(10**9) == pytest.approx(fabric.energy_per_gb_wh)


def test_zero_cost_detection():
    assert get_fabric("uniform").is_zero_cost()
    assert not get_fabric("congested").is_zero_cost()
    assert not get_fabric("edge-wan").is_zero_cost()


# --------------------------------------------------------------------- #
# Property tests: routing determinism and monotonicity
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    bandwidths=st.lists(
        st.floats(min_value=0.1, max_value=400.0, allow_nan=False), min_size=1, max_size=6
    )
)
def test_route_stable_across_json_round_trip(bandwidths):
    racks = tuple(
        Rack(f"r{i}", uplink_gbps=25.0) for i in range(len(bandwidths) + 1)
    )
    links = tuple(
        FabricLink(f"r{i}", f"r{i + 1}", bandwidth_gbps=bw)
        for i, bw in enumerate(bandwidths)
    )
    fabric = FabricTopology(name="line", racks=racks, links=links)
    rebuilt = FabricTopology.from_dict(json.loads(json.dumps(fabric.to_dict())))
    for i in range(len(racks)):
        for j in range(len(racks)):
            assert fabric.route(f"r{i}", f"r{j}") == rebuilt.route(f"r{i}", f"r{j}")


@settings(max_examples=30, deadline=None)
@given(
    bandwidth=st.floats(min_value=0.05, max_value=100.0, allow_nan=False),
    factor=st.floats(min_value=1.01, max_value=50.0, allow_nan=False),
    payload=st.integers(min_value=1, max_value=10**10),
)
def test_transfer_time_monotone_in_inverse_bandwidth(bandwidth, factor, payload):
    slow = two_rack_fabric(link_gbps=bandwidth)
    fast = two_rack_fabric(link_gbps=bandwidth * factor)
    assert slow.transfer_time("a", "b", payload) >= fast.transfer_time("a", "b", payload)
    assert slow.path_cost("r0", "r1") >= fast.path_cost("r0", "r1")


def test_rack_of_stable_across_hash_seeds():
    """The hash fallback must not depend on ``PYTHONHASHSEED``."""
    code = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.fabric import get_fabric;"
        "f = get_fabric('datacenter-3tier');"
        "print(','.join(f.rack_of(f'host{i}') for i in range(8)))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            cwd=".",
        ).stdout
        for seed in ("0", "1", "12345")
    }
    assert len(outputs) == 1


# --------------------------------------------------------------------- #
# Executor transfer phases (the congested acceptance criterion)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def videos():
    return generate_videos(1)


@pytest.fixture(scope="module")
def congested_runs(videos):
    """(no-fabric, congested default, congested locality_aware) results."""
    job = lambda: compile_spec(  # noqa: E731
        video_understanding_spec(), inputs=videos, job_id="vu"
    )
    plain = MurakkabRuntime(cluster=paper_testbed(4)).submit(job())
    default = MurakkabRuntime(cluster=paper_testbed(4), fabric="congested").submit(job())
    locality = MurakkabRuntime(
        cluster=paper_testbed(4), policy="locality_aware", fabric="congested"
    ).submit(job())
    return plain, default, locality


def test_congested_fabric_charges_transfers(congested_runs):
    plain, default, _ = congested_runs
    assert plain.transfer_events == 0 and plain.transferred_bytes == 0
    assert default.transfer_events > 0
    assert default.transferred_bytes > 0
    assert default.transfer_s > 0.0
    assert default.transfer_wh > 0.0
    # Transfer waits surface in end-to-end latency.
    assert default.makespan_s > plain.makespan_s


def test_locality_aware_moves_fewer_cross_rack_bytes_and_is_faster(congested_runs):
    _, default, locality = congested_runs
    # The chatty detector -> NVLM edge crosses racks under default placement
    # but stays inside one rack under locality_aware: strictly fewer
    # cross-rack bytes AND lower latency (the PR acceptance criterion).
    assert default.cross_rack_bytes > 0
    assert locality.cross_rack_bytes < default.cross_rack_bytes
    assert locality.makespan_s < default.makespan_s
    # Locality does not change what must move, only where it moves.
    assert locality.transferred_bytes == default.transferred_bytes


def test_transfer_intervals_do_not_inflate_compute_energy(congested_runs):
    plain, default, _ = congested_runs
    # Transfer phases appear as zero-device trace intervals: visible on the
    # timeline, absent from the GPU/CPU energy integral.
    transfers = [i for i in default.trace if i.category == "Transfer"]
    assert transfers, "costed edges must record Transfer intervals"
    assert all(i.gpu_ids == () and i.cpu_cores == 0 for i in transfers)
    compute_plain = sum(
        i.duration for i in plain.trace if i.category != "Transfer"
    )
    compute_default = sum(
        i.duration for i in default.trace if i.category != "Transfer"
    )
    assert compute_default == pytest.approx(compute_plain)


# --------------------------------------------------------------------- #
# The uniform differential: byte-identical to no fabric at all
# --------------------------------------------------------------------- #


def _newsfeed_trace_report(fabric, generator, posts):
    from repro.loadgen import WorkloadRegistry

    registry = WorkloadRegistry()
    registry.register_spec(
        replace(newsfeed_spec(), inputs=InputsSpec(source="inline", items=posts))
    )
    service = AIWorkflowService(fabric=fabric)
    arrivals = [JobArrival(0.5 * i, "newsfeed") for i in range(100)]
    report = generator(service).run(arrivals, registry=registry)
    stats = service.stats
    service.shutdown()
    return report, stats


@pytest.mark.parametrize(
    "generator",
    [ServiceLoadGenerator, ReferenceLoadGenerator],
    ids=["numpy", "pure-python"],
)
def test_uniform_fabric_is_byte_identical_to_no_fabric(generator):
    posts = generate_posts(8, seed=5)
    without, stats_without = _newsfeed_trace_report(None, generator, posts)
    uniform, stats_uniform = _newsfeed_trace_report("uniform", generator, posts)
    assert uniform.canonical_dict() == without.canonical_dict()
    # summary() includes wall_jobs_per_second, a host wall-clock rate that
    # varies run to run; every simulated quantity must match exactly.
    summary_uniform = uniform.summary()
    summary_without = without.summary()
    summary_uniform.pop("wall_jobs_per_second", None)
    summary_without.pop("wall_jobs_per_second", None)
    assert summary_uniform == summary_without
    assert "transfer_events" not in summary_uniform
    assert uniform.transfer_events == 0 and uniform.transferred_bytes == 0
    assert stats_uniform.provenance() == stats_without.provenance()
    assert stats_uniform.per_job == stats_without.per_job


def test_uniform_fabric_single_job_byte_identical(videos):
    plain = MurakkabRuntime(cluster=paper_testbed(4)).submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="vu")
    )
    uniform = MurakkabRuntime(cluster=paper_testbed(4), fabric="uniform").submit(
        compile_spec(video_understanding_spec(), inputs=videos, job_id="vu")
    )
    assert uniform.summary() == plain.summary()
    assert uniform.compact_summary() == plain.compact_summary()
    assert tuple(uniform.trace) == tuple(plain.trace)
    assert uniform.transfer_events == 0


# --------------------------------------------------------------------- #
# Accounting gates: ServiceStats / TraceReport key surfaces
# --------------------------------------------------------------------- #


def test_service_stats_transfer_gating():
    stats = ServiceStats()
    assert sorted(stats.provenance()) == [
        "jobs_completed",
        "total_cost",
        "total_energy_wh",
        "total_makespan_s",
    ]
    other = ServiceStats()
    other.transfer_events = 3
    other.transferred_bytes = 1000
    other.cross_rack_bytes = 400
    other.transfer_s = 0.25
    other.transfer_wh = 0.01
    stats.merge(other)
    assert stats.transfer_events == 3
    assert stats.cross_rack_bytes == 400
    record = stats.provenance()
    assert record["transferred_bytes"] == 1000
    assert record["transfer_wh"] == 0.01


def test_congested_trace_report_surfaces_transfers():
    from repro.loadgen import WorkloadRegistry

    registry = WorkloadRegistry()
    registry.register_spec(video_understanding_spec(video_count=1), name="video")
    service = AIWorkflowService(
        runtime=MurakkabRuntime(cluster=paper_testbed(4)), fabric="congested"
    )
    arrivals = [JobArrival(30.0 * i, "video") for i in range(6)]
    report = service.submit_trace(arrivals, registry=registry)
    summary = report.summary()
    assert report.transfer_events > 0
    assert summary["transfer_events"] == report.transfer_events
    assert summary["transferred_bytes"] == report.transferred_bytes
    assert summary["cross_rack_bytes"] == report.cross_rack_bytes
    canonical = report.canonical_dict()
    assert canonical["transfer_events"] == report.transfer_events
    # Steady-state replayed jobs replicate the simulated job's transfers.
    replayed = report.replayed_jobs
    assert replayed > 0
    assert report.transfer_events % (report.simulated_jobs + replayed) == 0
    stats = service.stats
    assert stats.transfer_events == report.transfer_events
    assert stats.transferred_bytes == report.transferred_bytes
    service.shutdown()


def test_sharded_service_ships_fabric():
    from repro.sharding import ShardedService

    sharded = ShardedService(shards=2, backend="inline", fabric="congested")
    assert sharded.fabric is not None and sharded.fabric.name == "congested"
    config = sharded._shard_config()
    assert fabric_of(config["fabric"]).fingerprint() == sharded.fabric.fingerprint()
    shard = sharded._inline_shard(0)
    assert shard.fabric is sharded.fabric
    sharded.set_fabric("uniform")
    assert shard.fabric.name == "uniform"
    sharded.set_fabric(None)
    assert shard.fabric is None and sharded._shard_config()["fabric"] is None


def test_runtime_plan_cache_keys_on_fabric_fingerprint():
    runtime = MurakkabRuntime(cluster=paper_testbed(4))
    planner = runtime.orchestrator.planner
    assert planner.fabric is None
    runtime.set_fabric("congested")
    assert planner.fabric is runtime.fabric
    # Switching topologies re-points the planner (cache keys embed the
    # fingerprint, so decisions cached under one fabric never replay under
    # another).
    first = runtime.fabric.fingerprint()
    runtime.set_fabric("edge-wan")
    assert runtime.fabric.fingerprint() != first


# --------------------------------------------------------------------- #
# Table 2 transfer-energy column (satellite)
# --------------------------------------------------------------------- #


def test_table2_transfer_column_is_gated():
    from dataclasses import replace

    from repro.core.job import JobResult
    from repro.telemetry.energy_report import build_table2_rows, render_table2

    base = JobResult(job_id="a", makespan_s=5.0)
    rows = build_table2_rows({"baseline": base}, paper_values={})
    assert rows[0].transfer_wh is None
    assert "Transfer (Wh)" not in render_table2(rows)

    moved = replace(base, transfer_events=4, transfer_wh=0.125)
    rows = build_table2_rows({"baseline": moved}, paper_values={})
    assert rows[0].transfer_wh == 0.125
    rendered = render_table2(rows)
    assert "Transfer (Wh)" in rendered and "0.1250" in rendered
