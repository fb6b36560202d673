"""Check-in pooling: many device uploads, one upstream batch.

A :class:`GatewayAggregator` is the engine of the edge gateway tier
(ROADMAP: "the server sees thousands of gateways, not millions of
sockets").  Devices hand it their sanitized
:class:`~repro.core.protocol.CheckinMessage`\\ s one at a time; the
aggregator buffers them and flushes the whole buffer **upstream** as a
single batched call once the buffer reaches ``flush_size`` messages, or
when its owner calls :meth:`~GatewayAggregator.flush`.

``upstream`` is any callable taking a list of messages and returning the
per-message acks.  :class:`repro.gateway.edge.EdgeGateway` embeds one
whose ``upstream`` POSTs the batch to a live ``/v1/checkins`` endpoint;
the unit tests pass a fake.

If ``upstream`` raises, the in-flight batch is put back at the front of
the buffer before the exception propagates: messages stay in gateway
custody and the next flush retries them, preserving per-device order —
the batched analogue of Remark 1's keep-and-retry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.protocol import CheckinAck, CheckinMessage
from repro.utils.exceptions import ConfigurationError

#: ``upstream`` contract: list of messages in, per-message acks out.
Upstream = Callable[[List[CheckinMessage]], Sequence[Optional[CheckinAck]]]


@dataclass
class AggregatorStats:
    """Lifetime counters of one aggregator."""

    checkins_added: int = 0
    flushes: int = 0
    messages_flushed: int = 0
    largest_flush: int = 0
    size_flushes: int = 0
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
        Receives each flushed batch; returns the per-message acks.
    flush_size:
        Flush as soon as this many messages are buffered.

    Examples
    --------
    >>> batches = []
    >>> def upstream(messages):
    ...     batches.append(len(messages))
    ...     return [None] * len(messages)
    >>> agg = GatewayAggregator(upstream, flush_size=2)
    >>> from repro.core.protocol import CheckinMessage
    >>> import numpy as np
    >>> msg = CheckinMessage(0, "t", np.zeros(2), 1, 0.0, np.zeros(2), 0)
    >>> agg.add(msg) is None       # buffered, below threshold
    True
    >>> _ = agg.add(msg)           # second message triggers the flush
    >>> batches
    [2]
    """

    def __init__(self, upstream: Upstream, *, flush_size: int = 32):
        if flush_size < 1:
            raise ConfigurationError(f"flush_size must be >= 1, got {flush_size}")
        self._upstream = upstream
        self._flush_size = int(flush_size)
        self._buffer: List[CheckinMessage] = []
        self._on_acks: List[Optional[Callable[[Optional[CheckinAck]], None]]] = []
        self.stats = AggregatorStats()

    # -- state views ---------------------------------------------------- #

    @property
    def pending(self) -> int:
        """Messages currently buffered."""
        return len(self._buffer)

    def stats_snapshot(self) -> Dict[str, float]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        return self.stats.snapshot()

    # -- pooling -------------------------------------------------------- #

    def add(
        self,
        message: CheckinMessage,
        on_ack: Optional[Callable[[Optional[CheckinAck]], None]] = None,
    ) -> Optional[List[Optional[CheckinAck]]]:
        """Buffer one check-in; flush if the buffer reached ``flush_size``.

        Returns the flushed batch's acks when this add triggered a
        flush, ``None`` while the message merely joined the buffer.
        ``on_ack``, if given, is called with this message's ack when its
        batch's acks become known.
        """
        self._buffer.append(message)
        self._on_acks.append(on_ack)
        self.stats.checkins_added += 1
        if len(self._buffer) < self._flush_size:
            return None
        self.stats.size_flushes += 1
        return self.flush()

    def flush(self) -> List[Optional[CheckinAck]]:
        """Flush the whole buffer upstream as one batch.

        Returns the acks (``[]`` when the buffer was empty).  On an
        upstream exception the batch is restored to the front of the
        buffer, then the exception propagates — nothing is lost, the
        next flush retries.
        """
        if not self._buffer:
            return []
        batch = self._buffer
        callbacks = self._on_acks
        self._buffer = []
        self._on_acks = []
        try:
            acks = self._upstream(batch)
        except Exception:
            # Keep custody: re-queue ahead of anything added meanwhile.
            self._buffer = batch + self._buffer
            self._on_acks = callbacks + self._on_acks
            self.stats.custody_requeues += 1
            raise
        self.stats.flushes += 1
        self.stats.messages_flushed += len(batch)
        self.stats.largest_flush = max(self.stats.largest_flush, len(batch))
        acks = list(acks)
        for callback, ack in zip(callbacks, acks):
            if callback is not None:
                callback(ack)
        return acks
