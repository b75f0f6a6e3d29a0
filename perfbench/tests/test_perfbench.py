"""Smoke runs of every workload at tiny size, and proof that each output
check rejects a deliberately corrupted report.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json

import pytest

from repro.capture import payload_checksum

from perfbench import checks, reference, runner
from perfbench.tracer import SELF_TIMES
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(name, tmp_path):
    result = runner.run(name, seed=3, seconds=0, trace=False, workdir=tmp_path, size="tiny")
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    metrics = result["metrics"]
    assert list(metrics) == list(runner.END_TO_END)
    for metric, unit in runner.END_TO_END.items():
        assert metrics[metric]["unit"] == unit
        assert metrics[metric]["value"] > 0, metric


def test_gauge_keeps_its_share_of_the_timed_wall():
    gauge = reference.Gauge()
    gauge.keep_up(0.0)
    assert gauge.chunks == 1
    gauge.keep_up(2.0)
    assert gauge.seconds >= reference.SHARE * 2.0
    assert gauge.slowdown() > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_accounts_for_the_traced_wall(name, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = runner.run(
        name,
        seed=3,
        seconds=0,
        trace=True,
        workdir=tmp_path / "work",
        size="tiny",
        trace_path=trace_path,
    )
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert list(metrics) == list(runner.PER_LAYER)
    self_total = sum(metrics[name] for name in SELF_TIMES)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.overhead_ratio"] > 0
    assert "traced wall" in runner.layer_table(metrics)
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert len(events) >= metrics["trace.spans"] > 0
    assert {"name", "ph", "ts", "dur", "pid"} <= set(events[0])


def test_restart_warm_generations_run_no_profiling_sweep(tmp_path):
    result = runner.run("restart", seed=5, seconds=0, trace=True, workdir=tmp_path, size="tiny")
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert metrics["worker.profiling.sweeps"] == 0
    assert metrics["profiling.setup_sweeps"] == runner.SETUP_ROUNDS * 2
    assert metrics["warmstate.hits"] > 0 and metrics["warmstate.misses"] == 0


# --------------------------------------------------------------------- #
# Each check rejects a corrupted report
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A cold and a warm serving of one small grouped trace, plus a small
    multiplex serving with a periodic burst."""
    from repro.loadgen import default_registry
    from repro.profiling.profiler import clear_default_profile_store_cache
    from repro.service import AIWorkflowService
    from repro.workloads.arrival import JobArrival, uniform_arrivals

    registry = default_registry()
    arrivals = uniform_arrivals(12, 1.0, workloads=("newsfeed", "chain-of-thought"))
    cache = tmp_path_factory.mktemp("warm")
    cold_service = AIWorkflowService(warm_cache=cache)
    cold = cold_service.submit_trace(arrivals, registry=registry)
    cold_service.shutdown()
    clear_default_profile_store_cache()
    warm_service = AIWorkflowService(warm_cache=cache)
    warm = warm_service.submit_trace(arrivals, registry=registry)
    warm_service.shutdown()
    burst = [
        JobArrival(window * 40.0 + offset, workload)
        for window in range(12)
        for offset, workload in ((0.0, "newsfeed"), (0.3, "chain-of-thought"))
    ]
    multiplex_service = AIWorkflowService()
    multiplex = multiplex_service.submit_trace(burst, registry=registry, mode="multiplex")
    multiplex_service.shutdown()
    return {
        "arrivals": len(arrivals),
        "cold": (cold, cold_service.stats),
        "warm": (warm, warm_service.stats),
        "multiplex": multiplex,
    }


def test_conservation_rejects_a_removed_job(served):
    report, _ = served["cold"]
    checks.check_report_conservation(report, served["arrivals"])
    corrupted = copy.deepcopy(report)
    corrupted.jobs -= 1
    corrupted.replayed_jobs -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_report_conservation(corrupted, served["arrivals"])
    with pytest.raises(checks.CheckFailed):
        checks.check_conservation(10, 9, 0, 0)


def test_counters_must_agree_with_the_aggregates(served):
    report, _ = served["cold"]
    corrupted = copy.deepcopy(report)
    corrupted.quality.count -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_report_conservation(corrupted, served["arrivals"])


def test_digest_rejects_a_changed_report(served):
    report, _ = served["cold"]
    expected = payload_checksum(report.canonical_dict())
    checks.check_same_digest("same", expected, payload_checksum(report.canonical_dict()))
    corrupted = copy.deepcopy(report)
    corrupted.job_summaries.pop(next(iter(corrupted.job_summaries)))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_digest(
            "corrupted", expected, payload_checksum(corrupted.canonical_dict())
        )


def test_fidelity_rejects_replayed_jobs(served):
    report, _ = served["cold"]
    assert report.replayed_jobs > 0
    with pytest.raises(checks.CheckFailed):
        checks.check_fidelity(report)
    clean = copy.deepcopy(report)
    clean.replayed_jobs = 0
    checks.check_fidelity(clean)


def test_steady_rejects_a_trace_where_replay_never_fired(served):
    report = served["multiplex"]
    checks.check_replay_fired("burst", report)
    corrupted = copy.deepcopy(report)
    corrupted.replay_runs = 0
    with pytest.raises(checks.CheckFailed):
        checks.check_replay_fired("burst", corrupted)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda report, stats, sweeps: setattr(report, "warm_trace", False),
        lambda report, stats, sweeps: setattr(report, "simulated_jobs", 1),
        lambda report, stats, sweeps: sweeps.append(1),
        lambda report, stats, sweeps: report.job_summaries.pop(next(iter(report.job_summaries))),
        lambda report, stats, sweeps: setattr(stats, "jobs_completed", stats.jobs_completed - 1),
    ],
    ids=["cold-trace", "simulated", "sweep", "job-removed", "stats"],
)
def test_warm_generation_check_rejects_corruption(served, corrupt):
    cold_report, cold_stats = served["cold"]
    warm_report, warm_stats = served["warm"]
    cold = checks.aggregates(cold_report, cold_stats)
    checks.check_warm_generation(warm_report, warm_stats, [0], cold)
    report, stats, sweeps = copy.deepcopy(warm_report), copy.deepcopy(warm_stats), [0]
    corrupt(report, stats, sweeps)
    with pytest.raises(checks.CheckFailed):
        checks.check_warm_generation(report, stats, sweeps, cold)


# --------------------------------------------------------------------- #
# BENCHMARK.json keeps to the benchmark contract
# --------------------------------------------------------------------- #
def test_benchmark_json_keeps_to_the_contract():
    import re
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workload.why) for name, workload in WORKLOADS.items()
    ]
    assert set(SELF_TIMES) <= {m["name"] for m in spec["per_layer"]}
    name_pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_pattern = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name_pattern.match(metric["name"]) and unit_pattern.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
