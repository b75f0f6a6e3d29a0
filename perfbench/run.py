"""Serving benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Prints the per-layer table (``--trace 1``) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints no result and exits 1; a checkout without ``src/repro`` exits 2.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes stays under this directory of the checkout.
OUT = ROOT / "perfbench" / "out"


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing starts beside
    the spawned shard workers, so no process of the run outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401  (timed as part of set-up)
    from perfbench import checks, runner
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result = runner.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            started=STARTED,
            trace_path=trace_path,
        )
    except checks.CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    if args.trace:
        print(runner.layer_table(metrics))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
