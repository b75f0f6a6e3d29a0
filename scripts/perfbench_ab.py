#!/usr/bin/env python
"""A/B a perfbench metric between a parent revision and the working tree.

Exports the parent revision's files with ``git archive`` into a temporary
directory (removed on exit; nothing is written under ``.git``, so a run that
is killed leaves no stale worktree behind), then runs ``perfbench/run.py`` on
both trees in
alternating pairs: pair ``i`` serves seed ``first_seed + i`` on both sides,
with the side that runs first alternating between pairs.  Both sides run with
identical settings, from source, with no bytecode cache (each run gets an
empty ``PYTHONPYCACHEPREFIX`` and ``-B``).

Prints every pair's values, each side's median and quartiles, the wins, and
the verdict of the pairwise rule: a gain is claimed only when the change wins
at least nine tenths of the pairs (ties count for neither) and the medians
differ by more than the parent's interquartile range.  Then prints every
end-to-end metric of ``BENCHMARK.json`` with both medians, flagging each one
whose change median is worse than the parent's by more than its bound.
Last, runs one traced run (``--trace 1``) per side on the first seed and
prints every per-layer metric of ``BENCHMARK.json`` side by side, so a
change can name the layer its effect sits in.

Exits 1 when a deterministic output (every ``sim_*`` metric and
``served_frac``) differs between the two runs of one seed, traced runs
included, or when a run fails; exits 0 otherwise, whatever the verdict.  A
failed traced run is reported after the verdict, which it cannot lose.

Usage::

    python scripts/perfbench_ab.py --workload fidelity --pairs 10 --seconds 25
    python scripts/perfbench_ab.py --parent HEAD~1 --workload interactive \\
        --first-seed 11 --metric jobs_per_s
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> Dict[str, float]:
    """``{metric: value}`` from perfbench's output, whose last non-empty line
    is one JSON object ``{"correct", "attempted", "failed", "metrics"}``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError("perfbench reported an incorrect result")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def deterministic_mismatches(
    parent: Dict[str, float], change: Dict[str, float]
) -> List[str]:
    """Names of the deterministic outputs that differ between two runs of
    one seed: every ``sim_*`` metric and ``served_frac``."""
    names = sorted(
        name
        for name in set(parent) | set(change)
        if name.startswith("sim_") or name == "served_frac"
    )
    return [name for name in names if parent.get(name) != change.get(name)]


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` by the inclusive method (exact for any length)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], higher_is_better: bool) -> dict:
    """The pairwise rule applied to matched ``parent[i]``/``change[i]`` runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    gap = sign * (c_med - p_med)
    gain = wins * 10 >= 9 * len(parent) and gap > spread
    loss = losses * 10 >= 9 * len(parent) and -gap > spread
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "parent_iqr": spread,
        "verdict": "gain" if gain else "loss" if loss else "unresolved",
    }


def end_to_end_rows(
    parent_runs: Sequence[Dict[str, float]],
    change_runs: Sequence[Dict[str, float]],
    specs: Sequence[dict],
) -> List[dict]:
    """One row per end-to-end metric spec (``name``, ``better``, ``bound``):
    both medians, the change's relative worsening (negative when it is
    better), and whether that exceeds the bound."""
    rows = []
    for spec in specs:
        name = spec["name"]
        parent = statistics.median(run[name] for run in parent_runs)
        change = statistics.median(run[name] for run in change_runs)
        if parent:
            delta = parent - change if spec["better"] == "higher" else change - parent
            worse = delta / abs(parent)
        else:
            worse = 0.0 if change == parent else float("inf")
        rows.append(
            {
                "name": name,
                "unit": spec.get("unit", ""),
                "parent": parent,
                "change": change,
                "worse": worse,
                "bound": spec["bound"],
                "beyond_bound": worse > spec["bound"],
            }
        )
    return rows


def layer_rows(
    parent: Dict[str, float], change: Dict[str, float], specs: Sequence[dict]
) -> List[dict]:
    """One row per per-layer metric spec (``name``, ``unit``) that either
    traced run reported, in spec order: both values and the change/parent
    ratio (``None`` when the parent's value is zero)."""
    rows = []
    for spec in specs:
        name = spec["name"]
        if name not in parent and name not in change:
            continue
        before, after = parent.get(name, 0.0), change.get(name, 0.0)
        rows.append(
            {
                "name": name,
                "unit": spec.get("unit", ""),
                "parent": before,
                "change": after,
                "ratio": after / before if before else None,
            }
        )
    return rows


def _run(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> Dict[str, float]:
    with tempfile.TemporaryDirectory(prefix="pycache-") as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONPATH", None)
        completed = subprocess.run(
            [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if completed.returncode != 0:
        raise RuntimeError(
            f"perfbench failed in {tree} (seed {seed}, exit {completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    return parse_result(completed.stdout)


def _export_parent(parent: str, root: Path = ROOT) -> Path:
    """The files of revision ``parent`` of the repository at ``root``,
    written by ``git archive`` into a new temporary directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", parent],
        cwd=root, check=True, capture_output=True,
    )
    tree = Path(tempfile.mkdtemp(prefix="perfbench-ab-")) / "parent"
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as files:
        files.extractall(tree, filter="data")
    return tree


def _remove_export(tree: Path) -> None:
    shutil.rmtree(tree.parent, ignore_errors=True)


def _print_pairs(args, spec, higher, parent_runs, change_runs) -> None:
    """The verdict on ``args.metric`` and every end-to-end row."""
    result = verdict(
        [run[args.metric] for run in parent_runs],
        [run[args.metric] for run in change_runs],
        higher,
    )
    direction = "higher" if higher else "lower"
    print(f"{args.workload} {args.metric} ({direction} is better), {result['pairs']} pairs:")
    for side in ("parent", "change"):
        q1, median, q3 = result[side]
        print(f"  {side:6s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    print(
        f"  ratio change/parent {result['ratio']:.3f}; wins {result['wins']}, "
        f"losses {result['losses']}; parent IQR {result['parent_iqr']:.6g}"
    )
    print(f"  verdict: {result['verdict']}")
    print("end-to-end medians (parent -> change, worse by; bound):")
    for row in end_to_end_rows(parent_runs, change_runs, spec["end_to_end"]):
        print(
            f"  {row['name']:24s} {row['parent']:.6g} -> {row['change']:.6g} {row['unit']}"
            f"  {100 * row['worse']:+.1f}%; {100 * row['bound']:.0f}%"
            + ("  WORSE BEYOND BOUND" if row["beyond_bound"] else "")
        )
    sys.stdout.flush()


def _print_layers(args, spec, traced, differing) -> None:
    """Every per-layer metric of the two traced runs, side by side."""
    print(
        f"per-layer, one traced run per side (seed {args.first_seed}; parent -> change):"
        + (f"  OUTPUTS DIFFER: {', '.join(differing)}" if differing else "")
    )
    for row in layer_rows(traced["parent"], traced["change"], spec["per_layer"]):
        ratio = "" if row["ratio"] is None else f"  x{row['ratio']:.3f}"
        print(
            f"  {row['name']:36s} {row['parent']:.6g} -> {row['change']:.6g} "
            f"{row['unit']}{ratio}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--metric", default="jobs_per_s",
        help="an end-to-end metric of BENCHMARK.json; its direction comes from there",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in declared:
        parser.error(
            f"{args.metric!r} is not an end-to-end metric of BENCHMARK.json "
            f"(one of: {', '.join(sorted(declared))})"
        )
    higher = declared[args.metric] == "higher"

    # A terminated run still removes its export (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent_tree = _export_parent(args.parent)
    mismatched = False
    traced_failed = False
    parent_runs: List[Dict[str, float]] = []
    change_runs: List[Dict[str, float]] = []
    try:
        for index in range(args.pairs):
            seed = args.first_seed + index
            sides = [("parent", parent_tree), ("change", ROOT)]
            if index % 2:
                sides.reverse()
            runs = {name: _run(tree, args.workload, seed, args.seconds) for name, tree in sides}
            parent_runs.append(runs["parent"])
            change_runs.append(runs["change"])
            differing = deterministic_mismatches(runs["parent"], runs["change"])
            mismatched |= bool(differing)
            print(
                f"pair {index + 1:2d} seed {seed:3d} first={sides[0][0]:6s} "
                f"parent {runs['parent'][args.metric]:.6g} "
                f"change {runs['change'][args.metric]:.6g}"
                + (f"  OUTPUTS DIFFER: {', '.join(differing)}" if differing else ""),
                flush=True,
            )
        _print_pairs(args, spec, higher, parent_runs, change_runs)
        # The verdict is already out, so a failed traced run loses nothing.
        try:
            traced = {
                name: _run(tree, args.workload, args.first_seed, args.seconds, trace=1)
                for name, tree in (("parent", parent_tree), ("change", ROOT))
            }
        except (RuntimeError, ValueError) as error:
            print(f"traced run failed: {error}", file=sys.stderr)
            traced_failed = True
        else:
            differing = deterministic_mismatches(traced["parent"], traced["change"])
            mismatched |= bool(differing)
            _print_layers(args, spec, traced, differing)
    finally:
        _remove_export(parent_tree)

    if mismatched:
        print("deterministic outputs differ within a seed", file=sys.stderr)
    return 1 if mismatched or traced_failed else 0


if __name__ == "__main__":
    sys.exit(main())
