"""Simulator integration for the gateway tier.

The headline contract: a **transparent** gateway tier (pass-through
flushing, zero delays, reliable hops) is bit-identical to no gateway at
all — pinned here both against a plain ``SimulatedTransport`` run and
against the recorded golden traces (no regeneration).  On top of that,
the tier's own behaviours: batching, deadline flushing, backhaul drops,
stall windows with capacity overflow, and the end-of-run drain.
"""

import numpy as np
import pytest

from repro.data import iid_partition, make_mnist_like
from repro.evaluation import assert_traces_identical
from repro.gateway import GatewayProfile, TwoTierTopology
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.network.outage import BernoulliOutage
from repro.simulation import CrowdSimulator, SimulationConfig
from repro.utils.exceptions import ConfigurationError

from tests.simulation import _golden as golden_mod

CONFIG_CASES = golden_mod.make_config_cases()
#: The cases whose recorded traces a transparent gateway must reproduce:
#: everything without link delays or outages (those knobs are illegal in
#: gateway mode — per-hop properties live in the profiles instead).
ZERO_DELAY_CASES = sorted(
    name
    for name, overrides in CONFIG_CASES.items()
    if "link_delays" not in overrides and "outage" not in overrides
)

TRANSPARENT = TwoTierTopology(
    num_gateways=3, profile=GatewayProfile.pass_through()
)


def _make_checkin(device_id=0):
    from repro.core.protocol import CheckinMessage

    return CheckinMessage(
        device_id, "t", np.zeros(2), 1, 0.0, np.zeros(2, dtype=np.int64), 0
    )


@pytest.fixture(scope="module")
def data():
    return golden_mod.make_data()


@pytest.fixture(scope="module")
def small():
    train, test = make_mnist_like(num_train=120, num_test=30, seed=1)
    parts = iid_partition(train, 6, np.random.default_rng(1))
    return parts, test


def _run(parts, test, topo, seed=5, **config):
    simulator = CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test,
        SimulationConfig(num_devices=len(parts), gateways=topo, **config),
        seed=seed,
    )
    return simulator, simulator.run()


class TestGoldenParity:
    """Acceptance gate: zero-delay gateway configs reproduce the recorded
    golden traces exactly — the same file, no regeneration."""

    @pytest.mark.parametrize("name", ZERO_DELAY_CASES)
    def test_transparent_gateway_reproduces_golden(self, data, name):
        golden = golden_mod.load_golden()
        assert name in golden, f"golden trace missing for {name!r}"
        trace, _ = golden_mod.run_case(
            data, CONFIG_CASES[name], gateways=TRANSPARENT
        )
        problems = golden_mod.compare_fingerprint(
            name, golden_mod.trace_fingerprint(trace), golden[name]
        )
        assert not problems, "\n".join(problems)


class TestTransparentEquivalence:
    def test_trace_identical_to_plain_simulated(self, small):
        parts, test = small
        plain = CrowdSimulator(
            MulticlassLogisticRegression(50, 10), parts, test,
            SimulationConfig(num_devices=6, transport="simulated"),
            seed=5,
        ).run()
        for assignment in ("round_robin", "block", "hash"):
            topo = TwoTierTopology(
                num_gateways=3, assignment=assignment,
                profile=GatewayProfile.pass_through(),
            )
            _, gw = _run(parts, test, topo)
            assert_traces_identical(plain, gw, context=assignment)

    def test_bernoulli_device_outage_matches_plain_outage(self, small):
        """A Bernoulli edge-hop outage draws the device's network stream
        in exactly the plain transport's order, so the whole lossy run is
        bit-identical to ``outage=BernoulliOutage(p)`` without a tier."""
        parts, test = small
        p = 0.2
        plain = CrowdSimulator(
            MulticlassLogisticRegression(50, 10), parts, test,
            SimulationConfig(
                num_devices=6, transport="simulated",
                outage=BernoulliOutage(p),
            ),
            seed=5,
        ).run()
        topo = TwoTierTopology(
            num_gateways=2,
            profile=GatewayProfile(
                flush_size=1, device_outage=BernoulliOutage(p)
            ),
        )
        _, gw = _run(parts, test, topo)
        assert_traces_identical(plain, gw, context="bernoulli")


class TestBatching:
    def test_size_batching_consumes_everything(self, small):
        parts, test = small
        total = sum(len(p) for p in parts)
        topo = TwoTierTopology(
            num_gateways=2, profile=GatewayProfile(flush_size=8)
        )
        simulator, trace = _run(parts, test, topo)
        assert trace.total_samples_consumed == total
        assert simulator.gateway.pending_checkins == 0
        stats = [node.aggregator.stats for node in simulator.gateway.nodes]
        assert sum(s.messages_flushed for s in stats) == total
        assert max(s.largest_flush for s in stats) > 1

    def test_deadline_flush_unstrands_a_trickle(self, small):
        """flush_size far above the crowd's rate: only the deadline (and
        the final drain) moves check-ins upstream."""
        parts, test = small
        total = sum(len(p) for p in parts)
        topo = TwoTierTopology(
            num_gateways=2,
            profile=GatewayProfile(flush_size=10_000, flush_deadline=3.0),
        )
        simulator, trace = _run(parts, test, topo)
        assert trace.total_samples_consumed == total
        assert simulator.gateway.pending_checkins == 0
        stats = [node.aggregator.stats for node in simulator.gateway.nodes]
        assert sum(s.deadline_flushes for s in stats) > 0
        assert all(s.size_flushes == 0 for s in stats)

    def test_final_drain_flushes_without_any_deadline(self, small):
        """No deadline and an unreachable flush_size: the end-of-run drain
        is the only trigger, and nothing is stranded."""
        parts, test = small
        total = sum(len(p) for p in parts)
        topo = TwoTierTopology(
            num_gateways=3, profile=GatewayProfile(flush_size=10_000)
        )
        simulator, trace = _run(parts, test, topo)
        assert trace.total_samples_consumed == total
        assert simulator.gateway.pending_checkins == 0


class TestFailureModes:
    def test_backhaul_drop_loses_whole_batches(self, small):
        parts, test = small
        total = sum(len(p) for p in parts)
        topo = TwoTierTopology(
            num_gateways=2,
            profile=GatewayProfile(
                flush_size=4, server_outage=BernoulliOutage(0.5)
            ),
        )
        simulator, trace = _run(parts, test, topo)
        lost = simulator.gateway.checkins_lost
        assert lost > 0
        assert trace.total_samples_consumed < total
        # Lost batches land in the run's communication accounting.
        assert trace.communication.messages_dropped >= lost

    def test_stall_survives_a_full_run(self, small):
        """A mid-run backhaul stall delays but never loses check-ins: the
        run still consumes every sample (the devices' adaptive batching
        absorbs the held rounds into larger messages)."""
        parts, test = small
        total = sum(len(p) for p in parts)
        stalled = GatewayProfile(
            flush_size=4, stall_windows=((0.0, 50.0),)
        )
        topo = TwoTierTopology(
            num_gateways=2, profiles={0: stalled},
            profile=GatewayProfile(flush_size=4),
        )
        simulator, trace = _run(parts, test, topo)
        assert trace.total_samples_consumed == total
        assert simulator.gateway.pending_checkins == 0
        assert simulator.gateway.nodes[0].capacity_drops == 0


class TestStallGeometry:
    """Event-queue-level stall semantics, observed delivery by delivery."""

    def _tier(self, profile, num_devices=2):
        from repro.gateway.transport import GatewayTransport
        from repro.network.events import EventQueue
        from repro.utils.rng import RngFactory

        queue = EventQueue()
        deliveries = []
        transport = GatewayTransport(
            queue,
            TwoTierTopology(num_gateways=1, profiles={0: profile}),
            num_devices,
            lambda messages: deliveries.append((queue.now, len(messages))),
            RngFactory(0),
        )
        links = [
            transport.connect(d, np.random.default_rng(d))
            for d in range(num_devices)
        ]
        return queue, transport, links, deliveries

    def test_checkins_inside_a_stall_burst_at_release(self):
        profile = GatewayProfile(flush_size=2, stall_windows=((1.0, 10.0),))
        queue, transport, links, deliveries = self._tier(profile)

        def send(link):
            link.checkin.send(lambda *a: None, args=(None, _make_checkin()))

        for at, link in ((2.0, links[0]), (3.0, links[1]), (4.0, links[0])):
            queue.schedule(at, send, args=(link,))
        while queue.step():
            pass
        # Three check-ins pooled during the stall (past flush_size): no
        # delivery until the release, then one burst with all of them.
        assert deliveries == [(10.0, 3)]
        assert transport.pending_checkins == 0
        assert transport.nodes[0].capacity_drops == 0

    def test_capacity_overflow_during_stall_drops_at_the_edge(self):
        profile = GatewayProfile(
            flush_size=2, capacity=2, stall_windows=((1.0, 100.0),)
        )
        queue, transport, links, deliveries = self._tier(profile)

        def send(link):
            link.checkin.send(lambda *a: None, args=(None, _make_checkin()))

        for at in (2.0, 3.0, 4.0, 5.0):
            queue.schedule(at, send, args=(links[0],))
        while queue.step():
            pass
        node = transport.nodes[0]
        # Two fit the stalled buffer; the overflow died at the edge and
        # was charged to the originating device's check-in leg.
        assert node.capacity_drops == 2
        assert links[0].checkin.stats.messages_dropped == 2
        assert deliveries == [(100.0, 2)]


class TestConfigWiring:
    def test_gateway_mode_resolves_and_exposes_the_tier(self, small):
        parts, test = small
        config = SimulationConfig(num_devices=6, gateways=TRANSPARENT)
        assert config.resolved_transport() == "gateway"
        simulator = CrowdSimulator(
            MulticlassLogisticRegression(50, 10), parts, test, config, seed=0
        )
        assert simulator.gateway is not None
        assert len(simulator.gateway.nodes) == 3
        assert simulator.gateway.assignment.shape == (6,)
        assert simulator.config.resolved_transport() == "gateway"

    def test_gateways_exclude_flat_link_knobs(self):
        with pytest.raises(ConfigurationError, match="gateway"):
            SimulationConfig(
                num_devices=4, gateways=TRANSPARENT,
                link_delays=LinkDelays.uniform(0.5),
            )
        with pytest.raises(ConfigurationError, match="gateway"):
            SimulationConfig(
                num_devices=4, gateways=TRANSPARENT,
                outage=BernoulliOutage(0.1),
            )

    def test_gateways_exclude_other_transports(self):
        for transport in ("direct", "http"):
            with pytest.raises(ConfigurationError, match="transport"):
                SimulationConfig(
                    num_devices=4, gateways=TRANSPARENT, transport=transport,
                )
