"""Deterministic helpers for synthetic agent outputs.

Agents in this reproduction do not run real models; they produce synthetic
outputs derived deterministically from their inputs and their quality score,
so that end-to-end examples yield stable, inspectable results and so that
quality can be measured against the workload generator's ground truth.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of the string rendering of ``parts``.

    Python's built-in ``hash`` is randomised per process for strings, so we
    use blake2b to keep synthetic outputs reproducible across runs.  The
    digest depends only on ``"|".join(str(p) for p in parts)``.
    """
    return _digest("|".join(str(p) for p in parts))


def _digest(rendered: str) -> int:
    digest = hashlib.blake2b(rendered.encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def stable_fraction(*parts: object) -> float:
    """A deterministic float in [0, 1) derived from ``parts``."""
    return _fraction("|".join(str(p) for p in parts))


def _fraction(rendered: str) -> float:
    return (_digest(rendered) % 10_000_000) / 10_000_000.0


def stable_subset(items: Sequence[str], keep_fraction: float, *seed_parts: object) -> List[str]:
    """Keep a deterministic ~``keep_fraction`` subset of ``items``.

    Used to model lossy agents: an object detector with quality 0.9 recovers
    ~90% of the ground-truth objects, and always the *same* 90% for the same
    input.

    Item ``i`` is kept when ``stable_fraction(items[i], i, *seed_parts) <
    keep_fraction``.  Which indices are kept is memoized, keyed on the
    *rendered* items and seed parts, never on the raw arguments: ``1``,
    ``1.0`` and ``True`` are equal as keys but render as different strings
    and so keep different subsets.  Every call returns a fresh list of the
    caller's own items, so mutating it never changes a later result.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1]: {keep_fraction}")
    items = list(items)
    suffix = "".join("|" + str(part) for part in seed_parts)
    kept = _kept_indices(tuple(map(str, items)), keep_fraction, suffix)
    return [items[index] for index in kept]


@lru_cache(maxsize=4096)
def _kept_indices(rendered_items: Tuple[str, ...], keep_fraction: float, suffix: str) -> Tuple[int, ...]:
    return tuple(
        index
        for index, item in enumerate(rendered_items)
        if _fraction(f"{item}|{index}{suffix}") < keep_fraction
    )


@lru_cache(maxsize=8192)
def stable_embedding(text: str, dimension: int = 64) -> np.ndarray:
    """A deterministic unit-norm embedding for ``text``.

    Token-level hashing gives related texts (sharing words) related vectors,
    which is enough for the vector-database retrieval path to behave
    sensibly.  The function is pure, so results are memoized (embedding the
    same scene summaries dominates repeated workflow submissions); the cached
    array is marked read-only to catch accidental in-place mutation.
    """
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    vector = np.zeros(dimension, dtype=np.float64)
    tokens = text.lower().split() or [text]
    for token in tokens:
        rng = np.random.default_rng(stable_hash(token) % (2**32))
        vector += rng.normal(size=dimension)
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        vector[0] = 1.0
        norm = 1.0
    vector /= norm
    vector.flags.writeable = False
    return vector
