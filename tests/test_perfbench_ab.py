"""The A/B script's parsing and verdict, on canned perfbench output."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perfbench_ab.py"
_spec = importlib.util.spec_from_file_location("perfbench_ab", _SCRIPT)
perfbench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_ab)


def _result_line(**metrics) -> str:
    return json.dumps(
        {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {
                name: {"value": value, "unit": "x"} for name, value in metrics.items()
            },
        }
    )


def test_parse_result_reads_the_last_json_line():
    stdout = "layer table\n  sim.engine.self_s 1.0\n" + _result_line(
        jobs_per_s=412.5, served_frac=0.8
    ) + "\n\n"
    assert perfbench_ab.parse_result(stdout) == {"jobs_per_s": 412.5, "served_frac": 0.8}


def test_parse_result_rejects_empty_and_incorrect_output():
    with pytest.raises(ValueError):
        perfbench_ab.parse_result("\n")
    with pytest.raises(ValueError):
        perfbench_ab.parse_result(json.dumps({"correct": False, "metrics": {}}))


def test_only_deterministic_outputs_must_match():
    parent = {"jobs_per_s": 400.0, "setup_s": 0.4, "served_frac": 0.8, "sim_latency_p50_s": 3.0}
    same = dict(parent, jobs_per_s=500.0, setup_s=0.3)
    assert perfbench_ab.deterministic_mismatches(parent, same) == []
    moved = dict(same, served_frac=0.7, sim_latency_p50_s=3.5)
    assert perfbench_ab.deterministic_mismatches(parent, moved) == [
        "served_frac",
        "sim_latency_p50_s",
    ]
    assert perfbench_ab.deterministic_mismatches(parent, {"jobs_per_s": 1.0}) == [
        "served_frac",
        "sim_latency_p50_s",
    ]


def test_nine_of_ten_wins_beyond_the_parent_spread_is_a_gain():
    parent = [400, 410, 390, 405, 395, 400, 402, 398, 401, 399]
    change = [500, 510, 490, 505, 495, 500, 502, 498, 501, 300]
    result = perfbench_ab.verdict(parent, change, higher_is_better=True)
    assert (result["wins"], result["losses"]) == (9, 1)
    assert result["verdict"] == "gain"
    assert result["ratio"] == pytest.approx(500.0 / 400.0)


def test_eight_wins_or_a_gap_inside_the_spread_is_unresolved():
    parent = [400.0] * 10
    change = [500.0] * 8 + [300.0] * 2
    assert perfbench_ab.verdict(parent, change, True)["verdict"] == "unresolved"
    wide = [300, 500, 320, 480, 340, 460, 360, 440, 380, 420]
    assert perfbench_ab.verdict(wide, [x + 5 for x in wide], True)["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0]
    result = perfbench_ab.verdict(parent, list(parent), True)
    assert (result["wins"], result["losses"], result["verdict"]) == (0, 0, "unresolved")


def test_lower_is_better_flips_the_direction():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    faster = [value / 2 for value in parent]
    assert perfbench_ab.verdict(parent, faster, higher_is_better=False)["verdict"] == "gain"
    assert perfbench_ab.verdict(parent, faster, higher_is_better=True)["verdict"] == "loss"


def test_quartiles_are_inclusive():
    assert perfbench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perfbench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_end_to_end_rows_flag_only_a_worsening_beyond_the_bound():
    specs = [
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    parent = [
        {"jobs_per_s": 400.0, "peak_rss_mb": 50.0, "setup_s": 0.4},
        {"jobs_per_s": 420.0, "peak_rss_mb": 52.0, "setup_s": 0.5},
    ]
    change = [
        {"jobs_per_s": 300.0, "peak_rss_mb": 60.0, "setup_s": 0.45},
        {"jobs_per_s": 310.0, "peak_rss_mb": 62.0, "setup_s": 0.35},
    ]
    rows = {row["name"]: row for row in perfbench_ab.end_to_end_rows(parent, change, specs)}
    assert rows["jobs_per_s"]["worse"] == pytest.approx(1 - 305.0 / 410.0)
    assert rows["jobs_per_s"]["beyond_bound"]
    assert rows["peak_rss_mb"]["worse"] == pytest.approx(10.0 / 51.0)
    assert rows["peak_rss_mb"]["beyond_bound"]
    assert rows["setup_s"]["worse"] == pytest.approx(-0.05 / 0.45)
    assert not rows["setup_s"]["beyond_bound"]


def test_metric_must_be_end_to_end_and_is_rejected_before_any_run(monkeypatch, capsys):
    def no_export(parent):
        raise AssertionError("no run may start for a rejected metric")

    monkeypatch.setattr(perfbench_ab, "_export_parent", no_export)
    with pytest.raises(SystemExit) as exit_info:
        perfbench_ab.main(["--workload", "fidelity", "--metric", "sim.engine.self_s"])
    assert exit_info.value.code == 2
    assert "not an end-to-end metric" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        perfbench_ab.main(["--workload", "fidelity", "--better", "higher"])


def test_parent_is_exported_without_writing_under_git(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("print('parent')\n")
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME="a",
        GIT_AUTHOR_EMAIL="a@example.com",
        GIT_COMMITTER_NAME="a",
        GIT_COMMITTER_EMAIL="a@example.com",
    )
    for command in (
        ["git", "init", "-q"],
        ["git", "add", "-A"],
        ["git", "commit", "-q", "-m", "parent"],
    ):
        subprocess.run(command, cwd=repo, env=env, check=True, capture_output=True)
    (repo / "perfbench" / "run.py").write_text("print('change')\n")
    before = sorted(path.relative_to(repo) for path in (repo / ".git").rglob("*"))

    tree = perfbench_ab._export_parent("HEAD", root=repo)
    try:
        assert (tree / "perfbench" / "run.py").read_text() == "print('parent')\n"
        assert not (tree / ".git").exists()
        assert sorted(path.relative_to(repo) for path in (repo / ".git").rglob("*")) == before
    finally:
        perfbench_ab._remove_export(tree)
    assert not tree.parent.exists()


def test_layer_rows_pair_each_reported_layer_in_spec_order():
    specs = [
        {"name": "core.planner.self_s", "unit": "s"},
        {"name": "sharding.merged_s", "unit": "s"},
        {"name": "core.planner.plan_cache_hit_ratio", "unit": "ratio"},
    ]
    parent = {"core.planner.self_s": 0.5, "core.planner.plan_cache_hit_ratio": 0.0}
    change = {"core.planner.self_s": 0.1, "core.planner.plan_cache_hit_ratio": 1.0}
    rows = perfbench_ab.layer_rows(parent, change, specs)
    assert [row["name"] for row in rows] == [
        "core.planner.self_s",
        "core.planner.plan_cache_hit_ratio",
    ]
    assert rows[0]["ratio"] == pytest.approx(0.2)
    assert (rows[1]["parent"], rows[1]["change"], rows[1]["ratio"]) == (0.0, 1.0, None)


def test_main_prints_one_traced_run_per_side_after_the_pairs(monkeypatch, capsys, tmp_path):
    parent_tree = tmp_path / "export" / "parent"
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        side = "parent" if tree == parent_tree else "change"
        calls.append((side, seed, trace))
        if trace:
            return {"core.orchestrator.self_s": 1.75 if side == "parent" else 0.7}
        return {"jobs_per_s": 500.0 if side == "parent" else 600.0, "served_frac": 1.0}

    monkeypatch.setattr(perfbench_ab, "_export_parent", lambda parent: parent_tree)
    monkeypatch.setattr(perfbench_ab, "_remove_export", lambda tree: None)
    monkeypatch.setattr(perfbench_ab, "_run", fake_run)
    monkeypatch.setattr(perfbench_ab, "end_to_end_rows", lambda *args: [])
    assert perfbench_ab.main(["--workload", "interactive", "--pairs", "2", "--first-seed", "7"]) == 0

    # The pairs alternate, untraced; then one traced run per side, first seed.
    assert calls == [
        ("parent", 7, 0), ("change", 7, 0),
        ("change", 8, 0), ("parent", 8, 0),
        ("parent", 7, 1), ("change", 7, 1),
    ]
    out = capsys.readouterr().out
    assert "one traced run per side (seed 7" in out
    layer_line = next(line for line in out.splitlines() if "core.orchestrator.self_s" in line)
    assert "1.75 -> 0.7 s" in layer_line and "x0.400" in layer_line


def _stub_main(monkeypatch, tmp_path, traced_run):
    parent_tree = tmp_path / "export" / "parent"
    benchmark = json.loads((_SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in benchmark["end_to_end"]]

    def fake_run(tree, workload, seed, seconds, trace=0):
        side = "parent" if tree == parent_tree else "change"
        if trace:
            return traced_run(side)
        run = dict.fromkeys(end_to_end, 1.0)
        run["jobs_per_s"] = 500.0 if side == "parent" else 600.0
        return run

    monkeypatch.setattr(perfbench_ab, "_export_parent", lambda parent: parent_tree)
    monkeypatch.setattr(perfbench_ab, "_remove_export", lambda tree: None)
    monkeypatch.setattr(perfbench_ab, "_run", fake_run)
    return perfbench_ab.main(["--workload", "interactive", "--pairs", "2"])


def test_a_failed_traced_run_keeps_the_verdict(monkeypatch, capsys, tmp_path):
    def broken(side):
        raise RuntimeError(f"perfbench failed ({side})")

    assert _stub_main(monkeypatch, tmp_path, broken) == 1
    captured = capsys.readouterr()
    assert "verdict: gain" in captured.out
    assert "peak_rss_mb" in captured.out  # the end-to-end rows
    assert "traced run failed: perfbench failed (parent)" in captured.err


def test_traced_runs_join_the_deterministic_check(monkeypatch, capsys, tmp_path):
    def traced(side):
        return {"served_frac": 1.0 if side == "parent" else 0.5}

    assert _stub_main(monkeypatch, tmp_path, traced) == 1
    captured = capsys.readouterr()
    assert "OUTPUTS DIFFER: served_frac" in captured.out
    assert "deterministic outputs differ" in captured.err
