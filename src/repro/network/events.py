"""Deterministic discrete-event scheduler.

The simulated crowd (Section V-C) is driven by a single global event queue:
sample arrivals, message deliveries, and timer expirations are all events
with a floating-point timestamp.  Ties are broken by insertion order, which
keeps runs byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.utils.exceptions import ConfigurationError

EventCallback = Callable[..., None]


class _ScheduledEvent:
    """One queue entry.  Heap ordering lives in the ``(time, sequence)``
    tuple pushed alongside it, so events themselves never compare — tuple
    comparison stays entirely in C on the hot path."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "fired", "tag")

    def __init__(self, time: float, sequence: int, callback: EventCallback,
                 args: tuple = (), tag: str = ""):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.tag = tag


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent, queue: "EventQueue"):
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self._event.fired or self._event.cancelled:
            return
        self._event.cancelled = True
        self._queue._pending -= 1


class EventQueue:
    """Min-heap event queue with a monotonically advancing clock.

    Examples
    --------
    >>> queue = EventQueue()
    >>> fired = []
    >>> _ = queue.schedule(1.0, lambda: fired.append("a"))
    >>> _ = queue.schedule(0.5, lambda: fired.append("b"))
    >>> queue.run()
    2
    >>> fired
    ['b', 'a']
    """

    def __init__(self):
        # Entries are (time, sequence, event) — sequence breaks ties by
        # insertion order and guarantees comparison never reaches the event.
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._fired = 0
        self._pending = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._pending

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def schedule(self, time: float, callback: EventCallback, tag: str = "",
                 args: tuple = ()) -> EventHandle:
        """Schedule ``callback`` at absolute ``time`` (≥ current time).

        ``args`` are passed through to ``callback`` when the event fires —
        hot paths schedule a bound method plus an args slot instead of
        allocating a fresh closure per event.
        """
        time = float(time)
        if time < self._now:
            raise ConfigurationError(
                f"cannot schedule event in the past: time={time} < now={self._now}"
            )
        sequence = next(self._counter)
        event = _ScheduledEvent(time, sequence, callback, args, tag)
        heapq.heappush(self._heap, (time, sequence, event))
        self._pending += 1
        return EventHandle(event, self)

    def schedule_after(self, delay: float, callback: EventCallback, tag: str = "",
                       args: tuple = ()) -> EventHandle:
        """Schedule ``callback`` after a relative non-negative ``delay``."""
        delay = float(delay)
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, tag, args)

    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self._pending -= 1
            self._now = time
            self._fired += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until exhaustion, a time horizon, or an event budget.

        Returns the number of events fired by this call.  Events scheduled
        exactly at ``until`` still fire.
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            head_time, _, head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head_time > until:
                break
            self.step()
            fired += 1
        if until is not None and (not self._heap or self._heap[0][0] > until):
            self._now = max(self._now, until)
        return fired
