"""The device↔server seam: how the Fig. 2 legs reach the other side.

The protocol core (:class:`~repro.core.server_core.ServerCore`) and the
device runtime never schedule events or open sockets themselves.  A round
trip — request (τ_req), check-out (τ_co), check-in (τ_ci) — runs in one
of two styles:

* **fused** — zero delay, reliable network: nothing can interleave within
  a round trip, so the whole of it executes as one synchronous call chain
  (see ``ServerCore.serve_round``) with no event-queue traffic and *no
  link at all*; ``CommunicationStats`` books the traffic.  The server side
  is the in-process core or, over HTTP, a live
  :class:`~repro.serve.service.CrowdService` behind its fused-round
  proxy, :class:`~repro.serve.remote.RemoteServerCore`.
* **event-driven** — the network of Section V-C: each device owns one
  :class:`Link` whose three legs schedule deliveries on the shared
  :class:`~repro.network.events.EventQueue`.  :class:`SimulatedTransport`
  builds links of delayed, possibly lossy
  :class:`~repro.network.channel.Channel`\\ s.  Delivery callbacks travel as
  ``(callback, args)`` pairs end to end, so no closure is allocated per
  message.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.channel import Channel
from repro.network.events import EventQueue
from repro.network.latency import LinkDelays
from repro.network.outage import NoOutage, OutageModel


class Link:
    """One device's three event-driven legs: request, check-out, check-in.

    Each leg is a :class:`~repro.network.channel.Channel`.
    """

    __slots__ = ("request", "checkout", "checkin")

    def __init__(self, request, checkout, checkin):
        self.request = request
        self.checkout = checkout
        self.checkin = checkin

    @property
    def messages_dropped(self) -> int:
        """Messages lost across all three legs."""
        return (
            self.request.stats.messages_dropped
            + self.checkout.stats.messages_dropped
            + self.checkin.stats.messages_dropped
        )


class SimulatedTransport:
    """Event-driven delivery over per-device delayed, lossy channels.

    Parameters
    ----------
    queue:
        The shared simulation event queue.
    delays:
        The τ_req/τ_co/τ_ci distributions applied to every link.
    outage:
        Failure model shared by all legs (reliable by default).
    """

    def __init__(
        self,
        queue: EventQueue,
        delays: Optional[LinkDelays] = None,
        outage: Optional[OutageModel] = None,
    ):
        self._queue = queue
        self._delays = delays if delays is not None else LinkDelays.zero()
        self._outage = outage if outage is not None else NoOutage()

    def connect(
        self, device_id: int, rng: Optional[np.random.Generator] = None
    ) -> Link:
        """Create the three channels for one device."""
        return Link(
            Channel(self._queue, self._delays.request, self._outage, rng,
                    name=f"request-{device_id}"),
            Channel(self._queue, self._delays.checkout, self._outage, rng,
                    name=f"checkout-{device_id}"),
            Channel(self._queue, self._delays.checkin, self._outage, rng,
                    name=f"checkin-{device_id}"),
        )
