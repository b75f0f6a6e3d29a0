"""Schedule goldens: four pinned runs must reproduce their recorded
fingerprint exactly (see ``tests/schedule_cases.py``).

Regenerate with ``python scripts/update_schedule_goldens.py`` only after an
intentional change of the simulated schedule.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from schedule_cases import CASES

GOLDEN_DIR = Path(__file__).parent / "data" / "schedules"


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert CASES[name]() == golden


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(CASES)
