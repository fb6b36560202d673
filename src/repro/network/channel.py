"""Delayed, lossy message channel between devices and the server.

A :class:`Channel` wraps the event queue: ``send`` samples a delay from its
:class:`~repro.network.latency.DelayModel`, consults its
:class:`~repro.network.outage.OutageModel`, and schedules the receiver
callback at ``now + delay`` (or drops the message).  Per-channel counters
feed the communication-load accounting of Section IV-B2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.network.events import EventQueue
from repro.network.latency import DelayModel, ZeroDelay
from repro.network.outage import NoOutage, OutageModel


@dataclass
class ChannelStats:
    """Traffic counters for one channel direction."""

    messages_sent: int = 0
    messages_dropped: int = 0
    payload_floats: int = 0
    total_delay: float = 0.0

    @property
    def messages_delivered(self) -> int:
        return self.messages_sent - self.messages_dropped

    @property
    def mean_delay(self) -> float:
        """Mean delay over delivered messages (0 when none delivered)."""
        delivered = self.messages_delivered
        return self.total_delay / delivered if delivered else 0.0


class Channel:
    """One direction of a device-server link.

    Parameters
    ----------
    queue:
        The shared simulation event queue.
    delay_model:
        Distribution of per-message delay.
    outage_model:
        Failure model; dropped messages never fire their callback.
    rng:
        Source of delay/outage randomness.
    name:
        Label used in diagnostics.
    """

    def __init__(
        self,
        queue: EventQueue,
        delay_model: Optional[DelayModel] = None,
        outage_model: Optional[OutageModel] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "channel",
    ):
        self._queue = queue
        self._delay_model = delay_model if delay_model is not None else ZeroDelay()
        self._outage_model = outage_model if outage_model is not None else NoOutage()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._name = str(name)
        self._stats = ChannelStats()

    @property
    def name(self) -> str:
        return self._name

    @property
    def stats(self) -> ChannelStats:
        """Live traffic counters for this channel."""
        return self._stats

    @property
    def delay_model(self) -> DelayModel:
        return self._delay_model

    def send(
        self,
        deliver: Callable[..., None],
        payload_floats: int = 0,
        on_drop: Optional[Callable[..., None]] = None,
        args: tuple = (),
        drop_args: tuple = (),
    ) -> bool:
        """Send a message; returns False if the outage model dropped it.

        ``payload_floats`` is the number of float64 values carried, used for
        the Section IV-B2 communication-volume accounting.  ``on_drop`` (if
        given) fires immediately when the message is lost, letting senders
        implement Remark 1's retry-later behaviour.

        ``args``/``drop_args`` ride the EventQueue's args slots end to end:
        hot paths pass a bound method plus its arguments instead of
        allocating a closure per message — delivery and outage-retry alike.
        A delivery is one heap entry at ``now + delay``, scheduled directly;
        the queue's past-time check still refuses a negative or NaN delay.
        """
        self._stats.messages_sent += 1
        self._stats.payload_floats += int(payload_floats)
        if self._outage_model.attempt_fails(self._rng, self._queue.now):
            self._stats.messages_dropped += 1
            if on_drop is not None:
                on_drop(*drop_args)
            return False
        delay = self._delay_model.sample(self._rng)
        self._stats.total_delay += delay
        queue = self._queue
        queue.schedule(queue.now + delay, deliver, args)
        return True
