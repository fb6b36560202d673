"""Event-driven gateway tier for the simulator.

A :class:`GatewayTransport` builds event-driven
:class:`~repro.network.transport.Link`\\ s with a middle tier: every
device's three legs run through its assigned gateway, so each protocol
leg crosses **two** hops — device↔gateway (that device's
edge link) and gateway↔server (the gateway's backhaul) — each with its
own delay/outage model from the gateway's
:class:`~repro.gateway.topology.GatewayProfile`.

Check-ins do not travel per-message past the gateway.  Each gateway node
owns a :class:`~repro.gateway.aggregator.GatewayAggregator` clocked by
the event queue: device check-ins accumulate there, and a size threshold,
an armed deadline timer, or a capacity bound flushes the whole buffer
upstream as **one** batch event.  The simulator receives that batch
through a single ``deliver_batch`` callback and applies its check-ins
one by one, as it would separate deliveries — which is what keeps a
transparent (pass-through, zero-delay, reliable) gateway bit-identical
to no gateway at all: one extra hop event per check-in, same arrival
timestamps, same application order, same RNG draws (zero-delay models
and :class:`~repro.network.outage.NoOutage` consume none).

Stall windows model a gateway whose backhaul is down: requests and
check-outs in transit are held until the window closes, buffered
check-ins stop flushing (the aggregator suspends), and arrivals beyond
``capacity`` are dropped at the gateway's edge — an entire crowd
segment stalls at once, then bursts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.protocol import CheckinMessage
from repro.gateway.aggregator import GatewayAggregator
from repro.gateway.topology import GatewayProfile, TwoTierTopology
from repro.network.channel import ChannelStats
from repro.network.events import EventHandle, EventQueue
from repro.network.transport import Link
from repro.utils.rng import RngFactory

#: The simulator's batch sink: receives each flushed gateway batch.
DeliverBatch = Callable[[List[CheckinMessage]], None]


class _GatewayNode:
    """One gateway: an aggregator plus its backhaul link state.

    The node owns the gateway-side RNG stream (backhaul delays/outages
    and nothing else draw from it), the deadline timer on the event
    queue, and the stall bookkeeping that suspends/resumes the
    aggregator around the profile's ``stall_windows``.
    """

    __slots__ = (
        "index", "profile", "_queue", "_deliver", "_rng", "aggregator",
        "uplink_stats", "checkins_lost", "capacity_drops", "_timer",
        "_resume_until", "_on_deadline_handler", "_on_resume_handler",
        "_receive_handler",
    )

    def __init__(
        self,
        index: int,
        profile: GatewayProfile,
        queue: EventQueue,
        deliver_batch: DeliverBatch,
        rng: np.random.Generator,
    ):
        self.index = index
        self.profile = profile
        self._queue = queue
        self._deliver = deliver_batch
        self._rng = rng
        self.aggregator = GatewayAggregator(
            self._depart,
            flush_size=profile.flush_size,
            flush_deadline=profile.flush_deadline,
            capacity=profile.capacity,
            clock=lambda: queue.now,
        )
        #: The gateway→server check-in hop: one message per flushed batch.
        self.uplink_stats = ChannelStats()
        #: Check-ins lost when the backhaul dropped a whole batch.
        self.checkins_lost = 0
        #: Check-ins dropped at the edge: stalled gateway at capacity.
        self.capacity_drops = 0
        self._timer: Optional[EventHandle] = None
        self._resume_until: Optional[float] = None
        self._on_deadline_handler = self._on_deadline
        self._on_resume_handler = self._on_resume
        self._receive_handler = self._receive

    # -- check-in path -------------------------------------------------- #

    def _receive(self, message: CheckinMessage, origin_stats: ChannelStats) -> None:
        """A device's check-in reached the gateway (device hop done)."""
        now = self._queue.now
        if self.profile.in_stall(now) and not self.aggregator.suspended:
            self.aggregator.suspend()
            self._ensure_resume(self.profile.stall_release(now))
        if (
            self.aggregator.suspended
            and self.aggregator.capacity is not None
            and self.aggregator.pending >= self.aggregator.capacity
        ):
            # Edge buffer overflow while the backhaul is down: the drop is
            # charged to the originating device's check-in leg, so it
            # lands in the run's communication accounting like any other
            # lost message.
            origin_stats.messages_dropped += 1
            self.capacity_drops += 1
            return
        self.aggregator.add(message)
        self._arm_deadline()

    def _depart(self, messages: List[CheckinMessage]) -> None:
        """Aggregator upstream: one batch leaves on the backhaul."""
        self._cancel_timer()
        now = self._queue.now
        self.uplink_stats.messages_sent += 1
        self.uplink_stats.payload_floats += sum(
            m.payload_floats for m in messages
        )
        if self.profile.server_outage.attempt_fails(self._rng, now):
            # The backhaul drops the whole batch: every pooled check-in
            # is lost at once — the failure-amplification the capacity /
            # flush-size knobs trade against.
            self.uplink_stats.messages_dropped += 1
            self.checkins_lost += len(messages)
            return None
        delay = self.profile.server_delays.checkin.sample(self._rng)
        self.uplink_stats.total_delay += delay
        self._queue.schedule(
            now + delay, self._deliver, tag="gateway-flush", args=(messages,)
        )
        return None  # asynchronous: acks are never known at the gateway

    # -- deadline timer ------------------------------------------------- #

    def _arm_deadline(self) -> None:
        at = self.aggregator.deadline_at
        if at is None:
            self._cancel_timer()
            return
        if (
            self._timer is not None
            and not self._timer.cancelled
            and self._timer.time == at
        ):
            return
        self._cancel_timer()
        self._timer = self._queue.schedule(
            at, self._on_deadline_handler, tag="gateway-deadline"
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self) -> None:
        self._timer = None
        now = self._queue.now
        if self.profile.in_stall(now):
            self.aggregator.suspend()
            self._ensure_resume(self.profile.stall_release(now))
            return
        self.aggregator.flush_if_due()

    # -- stall windows -------------------------------------------------- #

    def _ensure_resume(self, release: float) -> None:
        if self._resume_until is not None and self._resume_until >= release:
            return
        self._resume_until = release
        self._queue.schedule(release, self._on_resume_handler, tag="gateway-resume")

    def _on_resume(self) -> None:
        if self._resume_until is not None and self._queue.now < self._resume_until:
            return  # superseded by a later resume
        self._resume_until = None
        now = self._queue.now
        if self.profile.in_stall(now):
            # Window boundaries may touch: released straight into the
            # next stall.
            self._ensure_resume(self.profile.stall_release(now))
            return
        self.aggregator.resume()
        self._arm_deadline()

    # -- end-of-run drain ------------------------------------------------ #

    def drain(self) -> bool:
        """Make progress on stranded check-ins; True if any work remains.

        Called by the simulator when the event queue runs dry: a final
        shutdown flush for buffers that never hit a trigger (no deadline
        configured, trailing trickle below ``flush_size``).  During a
        stall the flush waits for the release event instead.
        """
        if self.aggregator.pending == 0:
            return False
        now = self._queue.now
        if self.profile.in_stall(now):
            self.aggregator.suspend()
            self._ensure_resume(self.profile.stall_release(now))
            return True
        if self.aggregator.suspended:
            return True  # a resume event is already on the queue
        self._cancel_timer()
        self.aggregator.flush()
        return True


class _GatewayLeg:
    """One request/check-out leg of a device's link: two hops in one send.

    Both hops are resolved at send time — device-hop outage and delay
    from the device's network RNG, backhaul outage (evaluated at the
    gateway arrival time) and delay from the gateway's RNG, plus the
    stall hold — and the delivery is scheduled directly at the final
    arrival time.  A drop on either hop fails the send synchronously,
    which preserves the simulator's Remark 1 recovery contract
    (``send(...) -> False`` reschedules the trigger chain).
    """

    __slots__ = ("_node", "_rng", "_leg", "_down", "_name", "stats")

    def __init__(
        self,
        node: _GatewayNode,
        rng: np.random.Generator,
        leg: str,
        down: bool,
        name: str,
    ):
        self._node = node
        self._rng = rng
        self._leg = leg  # "request" | "checkout": picks the LinkDelays slot
        self._down = down  # True: server→device (check-out direction)
        self._name = name
        self.stats = ChannelStats()

    def send(
        self,
        deliver: Callable[..., None],
        payload_floats: int = 0,
        on_drop: Optional[Callable[..., None]] = None,
        args: tuple = (),
        drop_args: tuple = (),
    ) -> bool:
        self.stats.messages_sent += 1
        self.stats.payload_floats += int(payload_floats)
        node = self._node
        profile = node.profile
        queue = node._queue
        now = queue.now
        device_delay = getattr(profile.device_delays, self._leg)
        server_delay = getattr(profile.server_delays, self._leg)
        if self._down:
            # Server → gateway (backhaul, held while stalled) → device.
            dropped = profile.server_outage.attempt_fails(node._rng, now)
            if not dropped:
                hop1 = profile.stall_release(now) + server_delay.sample(node._rng)
                dropped = profile.device_outage.attempt_fails(self._rng, hop1)
                if not dropped:
                    arrival = hop1 + device_delay.sample(self._rng)
        else:
            # Device → gateway → server; the backhaul outage and stall are
            # evaluated at the gateway arrival time.
            dropped = profile.device_outage.attempt_fails(self._rng, now)
            if not dropped:
                hop1 = now + device_delay.sample(self._rng)
                dropped = profile.server_outage.attempt_fails(node._rng, hop1)
                if not dropped:
                    arrival = profile.stall_release(hop1) + server_delay.sample(
                        node._rng
                    )
        if dropped:
            self.stats.messages_dropped += 1
            if on_drop is not None:
                on_drop(*drop_args)
            return False
        self.stats.total_delay += arrival - now
        queue.schedule(arrival, deliver, tag=self._name, args=args)
        return True


class _GatewayUplink:
    """The check-in leg: device hop into the gateway's aggregator.

    ``send`` carries the simulator's per-message delivery contract
    (``args=(actor, message)``) but the per-message ``deliver`` callback
    is intentionally unused past this point: the message's onward journey
    is the gateway's batch flush, delivered through the transport-level
    ``deliver_batch``.  The message is taken from ``args[-1]`` — the
    documented coupling to the simulator's send convention.
    """

    __slots__ = ("_node", "_rng", "_name", "stats")

    def __init__(self, node: _GatewayNode, rng: np.random.Generator, name: str):
        self._node = node
        self._rng = rng
        self._name = name
        self.stats = ChannelStats()

    def send(
        self,
        deliver: Callable[..., None],
        payload_floats: int = 0,
        on_drop: Optional[Callable[..., None]] = None,
        args: tuple = (),
        drop_args: tuple = (),
    ) -> bool:
        message: CheckinMessage = args[-1]
        node = self._node
        self.stats.messages_sent += 1
        self.stats.payload_floats += int(payload_floats)
        if node.profile.device_outage.attempt_fails(self._rng, node._queue.now):
            self.stats.messages_dropped += 1
            if on_drop is not None:
                on_drop(*drop_args)
            return False
        delay = node.profile.device_delays.checkin.sample(self._rng)
        self.stats.total_delay += delay
        node._queue.schedule_after(
            delay, node._receive_handler, tag=self._name,
            args=(message, self.stats),
        )
        return True


class GatewayTransport:
    """Two-tier transport: device links run through aggregating gateways.

    Parameters
    ----------
    queue:
        The shared simulation event queue.
    topology:
        Gateway count, device assignment, and per-gateway profiles.
    num_devices:
        M; resolves the device→gateway assignment up front.
    deliver_batch:
        Simulator callback receiving each flushed check-in batch (the
        batch analogue of the per-message check-in arrival handler).
    rng_factory:
        Source of the per-gateway RNG streams (``"gateway"``, index g).
    """

    def __init__(
        self,
        queue: EventQueue,
        topology: TwoTierTopology,
        num_devices: int,
        deliver_batch: DeliverBatch,
        rng_factory: RngFactory,
    ):
        self._queue = queue
        self._topology = topology
        self._assignment = topology.assign(num_devices)
        self._nodes: Tuple[_GatewayNode, ...] = tuple(
            _GatewayNode(
                g,
                topology.profile_for(g),
                queue,
                deliver_batch,
                rng_factory.generator("gateway", g),
            )
            for g in range(topology.num_gateways)
        )

    @property
    def topology(self) -> TwoTierTopology:
        return self._topology

    @property
    def assignment(self) -> np.ndarray:
        """The resolved device→gateway map (index m → gateway)."""
        return self._assignment

    @property
    def nodes(self) -> Tuple[_GatewayNode, ...]:
        return self._nodes

    @property
    def checkins_lost(self) -> int:
        """Check-ins lost inside the tier (dropped batches + capacity
        drops are charged to device links; this counts batch losses)."""
        return sum(node.checkins_lost for node in self._nodes)

    @property
    def pending_checkins(self) -> int:
        """Check-ins currently buffered across all gateways."""
        return sum(node.aggregator.pending for node in self._nodes)

    def connect(
        self, device_id: int, rng: Optional[np.random.Generator] = None
    ) -> Link:
        """A device's three legs, all routed through its gateway."""
        if rng is None:
            rng = np.random.default_rng()
        node = self._nodes[int(self._assignment[device_id])]
        return Link(
            _GatewayLeg(node, rng, "request", down=False,
                        name=f"request-{device_id}"),
            _GatewayLeg(node, rng, "checkout", down=True,
                        name=f"checkout-{device_id}"),
            _GatewayUplink(node, rng, name=f"checkin-{device_id}"),
        )

    def drain_stranded(self) -> bool:
        """Flush every gateway's leftovers; True if any progress was made.

        No short-circuiting: each node gets its drain step each round, so
        the simulator's ``run`` loop converges in a bounded number of
        passes (flush → deliver → possibly re-buffer never cycles, as
        delivered batches leave the tier for good).
        """
        progressed = False
        for node in self._nodes:
            if node.drain():
                progressed = True
        return progressed
