"""The discrete-event simulation engine.

The engine advances a :class:`~repro.sim.clock.SimClock` from event to event.
Callbacks may schedule further events.  The engine is deterministic: events at
the same timestamp fire in scheduling order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue


class SimulationEngine:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._clock = SimClock(start_time)
        self._queue = EventQueue()
        self._events_fired = 0
        #: Named completion watermarks (e.g. one per served job): the highest
        #: simulated time :meth:`mark` has recorded under each key.  Bounded
        #: by :attr:`WATERMARK_CAP` (oldest evicted) so a long-lived engine
        #: serving millions of jobs does not accumulate per-job state.
        self.watermarks: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (useful for debugging/limits)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return self._queue.live_count

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Inlined EventQueue.push: schedule() is the hottest call in the
        # simulator and the saved frame is worth ~15% of event throughput.
        # Must stay in lockstep with EventQueue.push (guarded by
        # test_engine_schedule_matches_queue_push).
        queue = self._queue
        sequence = queue._next_sequence
        queue._next_sequence = sequence + 1
        event = Event(self._clock._now + delay, sequence, callback, args, kwargs)
        event._queue = queue
        heapq.heappush(queue._heap, (event.time, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now}, requested={time}"
            )
        return self._queue.push(time, callback, *args, **kwargs)

    def schedule_at_batch(
        self, entries: Iterable[Tuple[float, Callable[..., Any], tuple]]
    ) -> List[Event]:
        """Inject many ``(time, callback, args)`` events in one pass.

        All times must be ``>= now``.  When the queue is idle the batch is
        heapified in O(n); trace-driven serving uses this to admit a whole
        arrival schedule (or a run of memoized job completions) without
        paying per-event push overhead.
        """
        entries = list(entries)
        now = self.now
        for time, _callback, _args in entries:
            if time < now:
                raise ValueError(
                    f"cannot schedule in the past: now={now}, requested={time}"
                )
        return self._queue.push_batch(entries)

    #: Retained watermark entries (oldest evicted beyond this).
    WATERMARK_CAP = 4096

    def mark(self, key: str) -> float:
        """Record a completion watermark for ``key`` at the current time."""
        now = self._clock.now
        watermarks = self.watermarks
        existing = watermarks.get(key)
        if existing is None or now > existing:
            watermarks[key] = now
        while len(watermarks) > self.WATERMARK_CAP:
            del watermarks[next(iter(watermarks))]
        return now

    def watermark(self, key: str) -> Optional[float]:
        """The latest watermark recorded for ``key``, or ``None``."""
        return self.watermarks.get(key)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self._clock.advance_to(event.time)
        event.fire()
        self._events_fired += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which the run stopped.
        """
        # The hot loop works on the queue's heap directly: one tuple peek and
        # one heappop per event, with no per-event method-call indirection.
        # Popped times are nondecreasing (schedule refuses past times), so the
        # clock can be advanced without the monotonicity check.
        queue = self._queue
        heap = queue._heap
        clock = self._clock
        heappop = heapq.heappop
        fired = 0
        while heap:
            if max_events is not None and fired >= max_events:
                break
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._queue = None
                queue._cancelled -= 1
                continue
            if until is not None and time > until:
                clock.advance_to(until)
                break
            heappop(heap)
            event._queue = None
            clock._now = time
            event.callback(*event.args, **event.kwargs)
            self._events_fired += 1
            fired += 1
        if until is not None and self.now < until and queue.peek_time() is None:
            clock.advance_to(until)
        return self.now

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._clock.reset()
        self._events_fired = 0
        self.watermarks.clear()
