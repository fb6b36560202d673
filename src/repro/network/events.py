"""Deterministic discrete-event scheduler.

The simulated crowd (Section V-C) is driven by a single global event queue:
sample arrivals and message deliveries are events with a floating-point
timestamp.  Ties are broken by insertion order, which keeps runs
byte-for-byte reproducible for a fixed seed.

A heap entry is the plain tuple ``(time, sequence, callback, args)``:
scheduling returns nothing, and a scheduled event always fires — there is
no handle and no cancellation.  A time that is not ``>= now`` (a past time
or NaN) is refused, so the clock only moves forward.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.utils.exceptions import ConfigurationError

EventCallback = Callable[..., None]


class EventQueue:
    """Min-heap event queue with a monotonically advancing clock.

    Examples
    --------
    >>> queue = EventQueue()
    >>> fired = []
    >>> queue.schedule(1.0, lambda: fired.append("a"))
    >>> queue.schedule(0.5, lambda: fired.append("b"))
    >>> queue.run()
    2
    >>> fired
    ['b', 'a']
    """

    def __init__(self):
        # Entries are (time, sequence, callback, args) — sequence breaks
        # ties by insertion order, so comparison never reaches the callback.
        self._heap: list[tuple[float, int, EventCallback, tuple]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired events."""
        return len(self._heap)

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(self, time: float, callback: EventCallback, args: tuple = ()) -> None:
        """Schedule ``callback`` at absolute ``time`` (≥ current time).

        ``args`` are passed through to ``callback`` when the event fires —
        hot paths schedule a bound method plus an args slot instead of
        allocating a fresh closure per event.
        """
        time = float(time)
        if not time >= self._now:
            raise ConfigurationError(
                f"cannot schedule event at time={time}: it must be >= now={self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), callback, args))

    def schedule_after(self, delay: float, callback: EventCallback, args: tuple = ()) -> None:
        """Schedule ``callback`` after a relative non-negative ``delay``."""
        delay = float(delay)
        if not delay >= 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self.schedule(self._now + delay, callback, args)

    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        if not self._heap:
            return False
        self._now, _, callback, args = heapq.heappop(self._heap)
        self._fired += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until exhaustion, a time horizon, or an event budget.

        Returns the number of events fired by this call.  Events scheduled
        exactly at ``until`` still fire.
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            fired += 1
        if until is not None and (not self._heap or self._heap[0][0] > until):
            self._now = max(self._now, until)
        return fired
