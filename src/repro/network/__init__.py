"""Simulated network substrate: event queue, delays, outages, transports.

Models Section IV-B3's three delay legs (τ_req, τ_co, τ_ci) with pluggable
delay distributions (uniform by default, per footnote 7) and Remark 1's
non-critical communication failures.  :mod:`repro.network.transport`
holds the device↔server seam of event-driven runs: one :class:`Link` of
three legs per device, built by :class:`SimulatedTransport`.  Fused
(zero-delay, reliable) rounds need no link.
"""

from repro.network.channel import Channel, ChannelStats
from repro.network.events import EventHandle, EventQueue
from repro.network.latency import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LinkDelays,
    LogNormalDelay,
    UniformDelay,
    ZeroDelay,
)
from repro.network.outage import (
    BernoulliOutage,
    BurstyOutage,
    NoOutage,
    OutageModel,
    WindowedOutage,
)
from repro.network.transport import Link, SimulatedTransport

__all__ = [
    "BernoulliOutage",
    "BurstyOutage",
    "Channel",
    "ChannelStats",
    "ConstantDelay",
    "DelayModel",
    "EventHandle",
    "EventQueue",
    "ExponentialDelay",
    "Link",
    "LinkDelays",
    "LogNormalDelay",
    "NoOutage",
    "OutageModel",
    "SimulatedTransport",
    "UniformDelay",
    "WindowedOutage",
    "ZeroDelay",
]
