"""Bounded, process-wide memos that confirm an entry before replaying it.

The job dataflow memo (:mod:`repro.core.dataflow`) and the schedule memo
(:mod:`repro.core.schedule`) both stand in for a computation whose replay
must equal it exactly, so neither trusts a single sighting.  Each key moves
through the states of a :class:`MemoEntry`:

* the first sighting of a key stores a *candidate* (:meth:`BoundedMemo.propose`);
* the second computes again and compares: equal, and the entry is
  *confirmed* (:meth:`BoundedMemo.confirm`) and replays from then on;
  different, and the key is *refused* for good (:meth:`BoundedMemo.refuse`),
  kept as a marker that stores nothing so every later sighting computes
  afresh.

A :class:`BoundedMemo` holds the entries, bounded by entry count and by
stored bytes and evicted oldest first (an entry that changes state counts
as new; one larger than the byte bound is kept as a refusal marker), and
counts ``fresh`` computations (ineligible keys and refused
ones), ``candidates`` stored, keys ``confirmed`` and ``refused``, and
``replayed`` sightings, plus counters of its own.  What a key is, what an
entry stores and how a replay applies it belong to each memo.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

CANDIDATE, CONFIRMED, REFUSED = "candidate", "confirmed", "refused"


class MemoEntry:
    """What a memo holds under one key: its state and its stored bytes.

    Subclasses add the stored value and drop it in :meth:`refuse`.
    """

    __slots__ = ("state", "size")

    def __init__(self, size: int) -> None:
        self.state = CANDIDATE
        self.size = size

    def refuse(self) -> None:
        """Become a refusal marker: drop the stored value."""
        self.state = REFUSED
        self.size = 0


class BoundedMemo:
    """Confirm-then-replay entries by key, bounded by :attr:`max_entries`
    and :attr:`max_bytes` (see the module docstring)."""

    def __init__(self, max_entries: int, max_bytes: int, counters: Sequence[str] = ()) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._counter_names = ("fresh", "candidates", "confirmed", "refused", "replayed", *counters)
        self.clear()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries: Dict[Hashable, MemoEntry] = {}
        self._bytes = 0
        self._counts = dict.fromkeys(self._counter_names, 0)

    def info(self) -> Dict[str, int]:
        """The counters, plus the ``entries`` held and their ``bytes``."""
        return {**self._counts, "entries": len(self._entries), "bytes": self._bytes}

    def count(self, counter: str) -> None:
        self._counts[counter] += 1

    def lookup(self, key: Optional[Hashable]) -> Optional[MemoEntry]:
        """The entry held for ``key`` (``None``: an ineligible computation)."""
        return self._entries.get(key) if key is not None else None

    def propose(self, key: Hashable, entry: MemoEntry) -> None:
        """Store ``entry`` as the candidate of a key seen for the first time."""
        self._counts["candidates"] += 1
        self._insert(key, entry)

    def confirm(self, key: Hashable, entry: MemoEntry) -> None:
        """The second sighting of ``key`` matched its candidate: ``entry``
        (the candidate, or what replaces it) replays from now on."""
        self._discard(key)
        entry.state = CONFIRMED
        self._counts["confirmed"] += 1
        self._insert(key, entry)

    def refuse(self, key: Hashable, entry: MemoEntry) -> None:
        """Never replay ``key``: ``entry`` stays as its marker."""
        self._discard(key)
        entry.refuse()
        self._counts["refused"] += 1
        self._insert(key, entry)

    def _discard(self, key: Hashable) -> None:
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous.size

    def _insert(self, key: Hashable, entry: MemoEntry) -> None:
        if entry.size > self.max_bytes:
            entry.refuse()
        entries = self._entries
        while entries and (
            len(entries) >= self.max_entries or self._bytes + entry.size > self.max_bytes
        ):
            self._bytes -= entries.pop(next(iter(entries))).size
        entries[key] = entry
        self._bytes += entry.size
