"""Cold -> warm identity smoke through the CLI.

Runs ``repro loadtest --report-json`` twice on one fresh temporary
``--warm-cache`` directory for each of three endpoints: a single engine, a
one-shard sharded service (``--shards 1 --shard-backend process``) and
``--shards 2``.  Fails unless each second (warm) report replayed its trace
recording (``warm_trace``) and matches the first (cold) report in
aggregates, latency samples and job summaries, and unless both one-shard
reports equal the single-engine report in those fields (a one-shard
sharded service serves exactly what an unsharded one does).

Run from the repo root (``make warm-smoke`` sets ``PYTHONPATH``)::

    PYTHONPATH=src python scripts/warm_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

#: The served trace: every registered workflow, so both shards of the
#: two-shard ring serve arrivals.  On this seed some single-engine probes'
#: simulated finish differs from ``start + makespan`` in the last bit, so a
#: warm replay that dropped the recording's pinned probe finishes fails.
TRACE = [
    "--workloads",
    "newsfeed,chain-of-thought,document-qa,video-understanding",
    "--rate",
    "0.5",
    "--horizon",
    "60",
    "--seed",
    "5",
]

#: Report fields a warm generation must reproduce exactly.  The
#: simulated/replayed split, the groups and the shard provenance legitimately
#: differ: the warm generation simulates nothing.
COMPARED = (
    "jobs",
    "makespan_s",
    "energy_wh",
    "cost",
    "quality",
    "queue_delay_s",
    "throughput",
    "latency_s",
    "job_summaries",
)


#: The endpoints, by label: each one's loadtest flags.
ENDPOINTS = {
    "--shards 1": ["--shards", "1"],
    "--shards 1 --shard-backend process": ["--shards", "1", "--shard-backend", "process"],
    "--shards 2": ["--shards", "2"],
}

#: Fields a one-shard sharded report must also share with the single-engine
#: report of the same generation (only shard provenance is added).
IDENTICAL = ("simulated_jobs", "replayed_jobs", "replay_runs", "warm_trace", "groups")


def _loadtest(cache: Path, report: Path, flags: list) -> dict:
    command = [sys.executable, "-m", "repro", "loadtest", *TRACE]
    command += ["--warm-cache", str(cache), *flags]
    command += ["--report-json", str(report)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(report.read_text(encoding="utf-8"))


def serve(flags: list) -> tuple:
    """The cold and the warm report of one endpoint on a fresh cache."""
    with tempfile.TemporaryDirectory(prefix="warm-smoke-") as workdir:
        root = Path(workdir)
        cold = _loadtest(root / "cache", root / "cold.json", flags)
        warm = _loadtest(root / "cache", root / "warm.json", flags)
    return cold, warm


def check(cold: dict, warm: dict) -> list:
    """The failures of one cold -> warm pair (empty when it held)."""
    failures = []
    if cold["warm_trace"]:
        failures.append("the cold run found a recording in a fresh cache")
    if not warm["warm_trace"]:
        failures.append("the rerun did not replay the recording (warm_trace unset)")
    if warm["simulated_jobs"] != 0:
        failures.append(f"the warm rerun simulated {warm['simulated_jobs']} jobs")
    for field in COMPARED:
        if warm[field] != cold[field]:
            failures.append(f"{field} differs between the cold and the warm run")
    return failures


def main() -> int:
    failures = []
    reports = {}
    for label, flags in ENDPOINTS.items():
        reports[label] = serve(flags)
        found = [f"{label}: {failure}" for failure in check(*reports[label])]
        failures += found
        print(f"warm smoke {label}: {'FAILED' if found else 'ok'}")
    found = [
        f"one-shard sharded {run} run: {field} differs from the single engine"
        for run, single, sharded in zip(
            ("cold", "warm"),
            reports["--shards 1"],
            reports["--shards 1 --shard-backend process"],
        )
        for field in COMPARED + IDENTICAL
        if sharded[field] != single[field]
    ]
    failures += found
    print(f"warm smoke one shard == single engine: {'FAILED' if found else 'ok'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
