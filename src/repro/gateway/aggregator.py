"""Check-in pooling: many device uploads, one upstream batch.

A :class:`GatewayAggregator` is the engine of the edge gateway tier
(ROADMAP: "the server sees thousands of gateways, not millions of
sockets").  Devices hand it their sanitized
:class:`~repro.core.protocol.CheckinMessage`\\ s one at a time; the
aggregator buffers them and flushes the whole buffer **upstream** as a
single batched ``handle_checkins`` call when either trigger fires:

* **size** — the buffer reached ``flush_size`` messages;
* **deadline** — ``flush_deadline`` time units elapsed since the first
  buffered message (so a trickle of uploads is never stranded);

whichever comes first.  ``capacity`` bounds the buffer: an active
aggregator force-flushes when the buffer hits it (back-pressure), so no
upstream batch ever exceeds ``capacity`` messages.

The aggregator is deliberately transport-agnostic: ``upstream`` is any
callable taking a list of messages and returning the per-message acks
(or ``None`` when delivery is asynchronous), and ``clock`` is any
monotonic time source.  The same class therefore serves two worlds:

* **simulation** — :mod:`repro.gateway.transport` embeds one per
  simulated gateway with ``clock=queue.now`` and an ``upstream`` that
  schedules the batch's delivery on the event queue;
* **HTTP** — :class:`repro.gateway.edge.EdgeGateway` embeds one with
  the wall clock and an ``upstream`` that POSTs the batch to a live
  ``/v1/checkins`` endpoint.

``suspend``/``resume`` model a gateway whose upstream link is down (a
stall window): while suspended nothing flushes — messages keep
accumulating — and ``resume`` flushes immediately if the backlog
already satisfies a trigger.  Callers that must bound a suspended
buffer (the simulator's per-gateway ``capacity`` drop semantics) check
:attr:`pending` against :attr:`capacity` before adding.

If ``upstream`` raises, the in-flight batch is put back at the front of
the buffer before the exception propagates: messages stay in gateway
custody and the next flush retries them, preserving per-device order —
the batched analogue of Remark 1's keep-and-retry.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.protocol import CheckinAck, CheckinMessage
from repro.utils.exceptions import ConfigurationError

#: ``upstream`` contract: list of messages in, per-message acks out
#: (``None`` for asynchronous delivery — acks are not yet known).
Upstream = Callable[[List[CheckinMessage]], Optional[Sequence[Optional[CheckinAck]]]]


@dataclass
class AggregatorStats:
    """Lifetime counters of one aggregator."""

    checkins_added: int = 0
    flushes: int = 0
    messages_flushed: int = 0
    largest_flush: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    capacity_flushes: int = 0
    #: flushes whose upstream raised — the batch went back into gateway
    #: custody (re-queued at the front) for the next flush to retry.
    custody_requeues: int = 0

    @property
    def mean_flush_size(self) -> float:
        """Average messages per upstream batch (0 when none flushed)."""
        return self.messages_flushed / self.flushes if self.flushes else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view of the counters (:mod:`repro.obs` idiom)."""
        out: Dict[str, float] = asdict(self)
        out["mean_flush_size"] = self.mean_flush_size
        return out


class GatewayAggregator:
    """Pool device check-ins and flush them upstream in batches.

    Parameters
    ----------
    upstream:
        Receives each flushed batch; returns the per-message acks, or
        ``None`` when delivery is asynchronous.
    flush_size:
        Flush as soon as this many messages are buffered.
    flush_deadline:
        Flush at most this long (in ``clock`` units) after the first
        buffered message; ``None`` disables the deadline trigger.  The
        deadline is polled — event-driven hosts arm a timer off
        :attr:`deadline_at`, wall-clock hosts call :meth:`flush_if_due`.
    capacity:
        Hard buffer bound; an active aggregator force-flushes on
        reaching it, so upstream batches never exceed it.
    clock:
        Zero-arg monotonic time source (defaults to
        :func:`time.monotonic`; the simulator passes the event queue's
        clock).

    Examples
    --------
    >>> batches = []
    >>> agg = GatewayAggregator(lambda ms: batches.append(len(ms)), flush_size=2)
    >>> from repro.core.protocol import CheckinMessage
    >>> import numpy as np
    >>> msg = CheckinMessage(0, "t", np.zeros(2), 1, 0.0, np.zeros(2), 0)
    >>> agg.add(msg) is None       # buffered, below threshold
    True
    >>> _ = agg.add(msg)           # second message triggers the flush
    >>> batches
    [2]
    """

    def __init__(
        self,
        upstream: Upstream,
        *,
        flush_size: int = 32,
        flush_deadline: Optional[float] = None,
        capacity: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if flush_size < 1:
            raise ConfigurationError(f"flush_size must be >= 1, got {flush_size}")
        if flush_deadline is not None and flush_deadline < 0:
            raise ConfigurationError(
                f"flush_deadline must be non-negative, got {flush_deadline}"
            )
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._upstream = upstream
        self._flush_size = int(flush_size)
        self._flush_deadline = (
            None if flush_deadline is None else float(flush_deadline)
        )
        self._capacity = None if capacity is None else int(capacity)
        self._clock = clock if clock is not None else time.monotonic
        self._buffer: List[CheckinMessage] = []
        self._on_acks: List[Optional[Callable[[Optional[CheckinAck]], None]]] = []
        self._deadline_at: Optional[float] = None
        self._suspended = False
        self.stats = AggregatorStats()

    # -- state views ---------------------------------------------------- #

    @property
    def pending(self) -> int:
        """Messages currently buffered."""
        return len(self._buffer)

    @property
    def flush_size(self) -> int:
        return self._flush_size

    @property
    def flush_deadline(self) -> Optional[float]:
        return self._flush_deadline

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def deadline_at(self) -> Optional[float]:
        """Clock time by which the current buffer must flush (or ``None``)."""
        return self._deadline_at

    @property
    def suspended(self) -> bool:
        """True while the upstream link is stalled (no flushing)."""
        return self._suspended

    def stats_snapshot(self) -> Dict[str, float]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        return self.stats.snapshot()

    # -- pooling -------------------------------------------------------- #

    def add(
        self,
        message: CheckinMessage,
        on_ack: Optional[Callable[[Optional[CheckinAck]], None]] = None,
    ) -> Optional[List[Optional[CheckinAck]]]:
        """Buffer one check-in; flush if a trigger fires.

        Returns the flushed batch's acks when this add triggered a
        flush, ``None`` while the message merely joined the buffer (or
        when ``upstream`` delivers asynchronously).  ``on_ack``, if
        given, is called with this message's ack when its batch's acks
        become known.
        """
        self._buffer.append(message)
        self._on_acks.append(on_ack)
        self.stats.checkins_added += 1
        if self._deadline_at is None and self._flush_deadline is not None:
            self._deadline_at = self._clock() + self._flush_deadline
        return self._flush_if_triggered()

    def _flush_if_triggered(self) -> Optional[List[Optional[CheckinAck]]]:
        """Flush iff a trigger fires now: capacity, else size, else deadline."""
        n = len(self._buffer)
        if self._suspended or n == 0:
            return None
        if self._capacity is not None and n >= self._capacity:
            self.stats.capacity_flushes += 1
        elif n >= self._flush_size:
            self.stats.size_flushes += 1
        elif self._deadline_at is not None and self._clock() >= self._deadline_at:
            self.stats.deadline_flushes += 1
        else:
            return None
        return self.flush()

    def flush(self) -> Optional[List[Optional[CheckinAck]]]:
        """Flush the whole buffer upstream as one batch.

        Returns the acks (``None`` for asynchronous upstreams, ``[]``
        when the buffer was empty).  On an upstream exception the batch
        is restored to the front of the buffer, then the exception
        propagates — nothing is lost, the next flush retries.
        """
        if not self._buffer:
            return []
        batch = self._buffer
        callbacks = self._on_acks
        self._buffer = []
        self._on_acks = []
        self._deadline_at = None
        try:
            acks = self._upstream(batch)
        except Exception:
            # Keep custody: re-queue ahead of anything added meanwhile.
            self._buffer = batch + self._buffer
            self._on_acks = callbacks + self._on_acks
            if self._buffer and self._flush_deadline is not None:
                self._deadline_at = self._clock() + self._flush_deadline
            self.stats.custody_requeues += 1
            raise
        self.stats.flushes += 1
        self.stats.messages_flushed += len(batch)
        self.stats.largest_flush = max(self.stats.largest_flush, len(batch))
        if acks is None:
            return None
        acks = list(acks)
        for callback, ack in zip(callbacks, acks):
            if callback is not None:
                callback(ack)
        return acks

    def flush_if_due(self) -> Optional[List[Optional[CheckinAck]]]:
        """Flush iff a trigger is due (wall-clock hosts poll the deadline)."""
        return self._flush_if_triggered()

    # -- stall handling ------------------------------------------------- #

    def suspend(self) -> None:
        """Stop flushing (the upstream link is down); adds keep buffering."""
        self._suspended = True

    def resume(self) -> Optional[List[Optional[CheckinAck]]]:
        """Upstream link restored: flush now if the backlog warrants it."""
        self._suspended = False
        return self._flush_if_triggered()
