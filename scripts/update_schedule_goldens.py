#!/usr/bin/env python
"""Regenerate the schedule golden files under tests/data/schedules/.

Each case in ``tests/schedule_cases.py`` is run once and its fingerprint
(output checksum, engine events fired, ``ClusterManager.allocate`` calls) is
written to ``<case>.json``.  ``tests/test_schedule_goldens.py`` fails when a
run drifts from its golden file, so a change that intentionally moves the
simulated schedule must re-run this script and commit the diff, the same
contract as ``scripts/update_fabric_goldens.py``.

Usage: ``python scripts/update_schedule_goldens.py``
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from schedule_cases import CASES  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "tests", "data", "schedules")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, case in CASES.items():
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
