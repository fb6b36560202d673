"""Tests for the transport layer (simulated channels vs direct fused)."""

import numpy as np
import pytest

from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network import (
    BernoulliOutage,
    EventQueue,
    LinkDelays,
    NoOutage,
    SimulatedTransport,
)
from repro.network.events import EventQueue as EventQueueClass
from repro.simulation import CrowdSimulator, SimulationConfig
from repro.utils.exceptions import ConfigurationError


class TestSimulatedTransport:
    def test_connect_builds_three_channels(self):
        queue = EventQueue()
        transport = SimulatedTransport(queue, LinkDelays.uniform(1.0))
        link = transport.connect(3, np.random.default_rng(0))
        assert link.request.name == "request-3"
        assert link.checkout.name == "checkout-3"
        assert link.checkin.name == "checkin-3"

    def test_send_travels_through_queue(self):
        queue = EventQueue()
        transport = SimulatedTransport(queue)
        link = transport.connect(0, np.random.default_rng(0))
        received = []
        link.request.send(received.append, args=(42,))
        assert received == []  # not yet delivered
        queue.run()
        assert received == [42]

    def test_dropped_messages_counted_across_legs(self):
        queue = EventQueue()
        transport = SimulatedTransport(queue, outage=BernoulliOutage(1.0))
        link = transport.connect(0, np.random.default_rng(0))
        link.request.send(lambda: None)
        link.checkin.send(lambda: None)
        assert link.messages_dropped == 2


class TestDirectTransport:
    """``transport="direct"``: the fused style — no transport object, the
    whole round runs inline — and the configs it refuses."""

    def test_rejects_nonzero_delays(self):
        with pytest.raises(ConfigurationError, match="zero link delays"):
            SimulationConfig(num_devices=2, transport="direct",
                             link_delays=LinkDelays.uniform(0.5))

    def test_rejects_lossy_outage(self):
        with pytest.raises(ConfigurationError, match="reliable"):
            SimulationConfig(num_devices=2, transport="direct",
                             link_delays=LinkDelays.zero(),
                             outage=BernoulliOutage(0.1))

    def test_accepts_zero_delay_reliable(self):
        train, test = make_mnist_like(num_train=40, num_test=20, seed=0)
        parts = iid_partition(train, 2, np.random.default_rng(0))
        config = SimulationConfig(num_devices=2, transport="direct",
                                  link_delays=LinkDelays.zero(),
                                  outage=NoOutage())
        assert config.resolved_transport() == "direct"
        trace = CrowdSimulator(MulticlassLogisticRegression(50, 10),
                               parts, test, config, seed=0).run()
        assert trace.communication.checkins_delivered > 0
        assert trace.communication.messages_dropped == 0

    def test_counters_track_legs(self):
        queue = EventQueue()
        link = SimulatedTransport(queue).connect(0, np.random.default_rng(0))
        link.request.send(lambda: None, payload_floats=0)
        link.checkout.send(lambda: None, payload_floats=500)
        link.checkin.send(lambda: None, payload_floats=512)
        assert link.request.stats.messages_sent == 1
        assert link.checkout.stats.payload_floats == 500
        assert link.checkin.stats.payload_floats == 512


class TestConfigResolution:
    def test_auto_resolves_by_delay_and_outage(self):
        zero = SimulationConfig(num_devices=2)
        assert zero.resolved_transport() == "direct"
        delayed = SimulationConfig(num_devices=2,
                                   link_delays=LinkDelays.uniform(0.3))
        assert delayed.resolved_transport() == "simulated"
        lossy = SimulationConfig(num_devices=2, outage=BernoulliOutage(0.1))
        assert lossy.resolved_transport() == "simulated"

    def test_uniform_zero_counts_as_zero_delay(self):
        config = SimulationConfig(num_devices=2,
                                  link_delays=LinkDelays.uniform(0.0))
        assert config.direct_transport_eligible

    def test_forced_direct_on_delayed_config_raises(self):
        train, test = make_mnist_like(num_train=40, num_test=20, seed=0)
        parts = iid_partition(train, 2, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            config = SimulationConfig(num_devices=2, transport="direct",
                                      link_delays=LinkDelays.uniform(0.5))
            CrowdSimulator(MulticlassLogisticRegression(50, 10),
                           parts, test, config, seed=0)

    def test_invalid_transport_name_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_devices=2, transport="carrier-pigeon")


class TestZeroClosures:
    """Hot paths must schedule (bound method, args), never fresh closures."""

    def _run_patched(self, monkeypatch, config):
        callbacks = []
        original = EventQueueClass.schedule

        def recording_schedule(self, time, callback, tag="", args=()):
            callbacks.append(callback)
            return original(self, time, callback, tag, args)

        monkeypatch.setattr(EventQueueClass, "schedule", recording_schedule)
        train, test = make_mnist_like(num_train=60, num_test=20, seed=0)
        parts = iid_partition(train, 3, np.random.default_rng(0))
        CrowdSimulator(MulticlassLogisticRegression(50, 10),
                       parts, test, config, seed=1).run()
        assert callbacks, "simulation scheduled no events"
        return callbacks

    @pytest.mark.parametrize("config_kwargs", [
        dict(batch_size=2, link_delays=LinkDelays.uniform(0.4)),
        dict(batch_size=2, link_delays=LinkDelays.uniform(0.4),
             outage=BernoulliOutage(0.3)),  # outage-retry path
        dict(batch_size=1),                 # direct transport (triggers only)
    ], ids=["delayed", "outage_retry", "direct"])
    def test_no_lambda_per_message(self, monkeypatch, config_kwargs):
        config = SimulationConfig(num_devices=3, num_snapshots=3,
                                  **config_kwargs)
        callbacks = self._run_patched(monkeypatch, config)
        lambdas = [c for c in callbacks
                   if getattr(c, "__name__", "") == "<lambda>"]
        assert lambdas == []
        # Every scheduled callback is a *reused* bound method of the
        # simulator — the distinct callback objects are O(handlers), not
        # O(messages).
        distinct = {id(c) for c in callbacks}
        assert len(distinct) <= 4

    def test_channel_send_passes_callback_through_unwrapped(self):
        from repro.network import Channel

        queue = EventQueue()
        channel = Channel(queue, rng=np.random.default_rng(0))
        scheduled = []
        original_schedule = queue.schedule_after
        queue.schedule_after = (
            lambda delay, callback, tag="", args=(): (
                scheduled.append((callback, args)),
                original_schedule(delay, callback, tag, args),
            )[-1]
        )

        def receiver(value):
            pass

        for value in range(50):
            channel.send(receiver, args=(value,))
        assert all(callback is receiver for callback, _ in scheduled)
        assert [args for _, args in scheduled] == [(v,) for v in range(50)]
