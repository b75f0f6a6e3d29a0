"""Cold -> warm identity smoke through the CLI.

Runs ``repro loadtest --report-json`` twice on one fresh temporary
``--warm-cache`` directory, once on a single engine and once with
``--shards 2``.  Fails unless the second (warm) report replayed its trace
recording (``warm_trace``) and matches the first (cold) report in
aggregates, latency samples and job summaries.

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


def _loadtest(cache: Path, report: Path, shards: int) -> dict:
    command = [sys.executable, "-m", "repro", "loadtest", *TRACE]
    command += ["--warm-cache", str(cache), "--shards", str(shards)]
    command += ["--report-json", str(report)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(report.read_text(encoding="utf-8"))


def check(shards: int) -> list:
    """The failures of one cold -> warm pair (empty when it held)."""
    with tempfile.TemporaryDirectory(prefix="warm-smoke-") as workdir:
        root = Path(workdir)
        cold = _loadtest(root / "cache", root / "cold.json", shards)
        warm = _loadtest(root / "cache", root / "warm.json", shards)
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
    return [f"--shards {shards}: {failure}" for failure in failures]


def main() -> int:
    failures = []
    for shards in (1, 2):
        found = check(shards)
        failures += found
        print(f"warm smoke --shards {shards}: {'FAILED' if found else 'ok'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
