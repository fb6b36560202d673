"""Uniform ``stats_snapshot()`` across the client-side surfaces.

Every traffic-touching component exposes the same idiom — a plain dict
of JSON-clean counters — so operators (and ``repro-obs``) can inspect
any of them without knowing its private stats shape.
"""

import json

import numpy as np
import pytest

from repro.core.protocol import CheckinMessage
from repro.gateway.aggregator import GatewayAggregator
from repro.gateway.edge import EdgeGateway
from repro.persist.faults import FaultyProxy
from repro.serve.client import ServiceClient

from tests.persist.conftest import CLASSES, make_core


def _message(seq=0):
    model = make_core().model
    return CheckinMessage(
        device_id=0, token="t",
        gradient=np.zeros(model.num_parameters),
        num_samples=1, noisy_error_count=0,
        noisy_label_counts=np.zeros(CLASSES, dtype=np.int64),
        checkout_iteration=0, checkin_seq=seq,
    )


def assert_uniform(snapshot):
    """The shared contract: a JSON-clean flat dict of numeric counters
    (nested dicts allowed one level down, e.g. per-error-code maps)."""
    assert isinstance(snapshot, dict)
    json.dumps(snapshot)  # JSON-clean
    for key, value in snapshot.items():
        assert isinstance(key, str)
        assert isinstance(value, (int, float, dict)), (key, value)


class TestUniformSnapshots:
    def test_aggregator(self):
        aggregator = GatewayAggregator(lambda ms: [None] * len(ms),
                                       flush_size=2)
        aggregator.add(_message(0))
        aggregator.add(_message(1))
        snapshot = aggregator.stats_snapshot()
        assert_uniform(snapshot)
        assert snapshot["checkins_added"] == 2
        assert snapshot["flushes"] == 1
        assert snapshot["mean_flush_size"] == 2.0
        assert snapshot["custody_requeues"] == 0

    def test_aggregator_counts_custody_requeues(self):
        calls = []

        def upstream(messages):
            calls.append(len(messages))
            if len(calls) == 1:
                raise OSError("link down")
            return [None] * len(messages)

        aggregator = GatewayAggregator(upstream, flush_size=1)
        with pytest.raises(OSError):
            aggregator.add(_message(0))
        assert aggregator.stats_snapshot()["custody_requeues"] == 1
        aggregator.flush()
        assert aggregator.stats_snapshot()["custody_requeues"] == 1

    def test_client(self):
        client = ServiceClient("http://127.0.0.1:1")
        snapshot = client.stats_snapshot()
        assert_uniform(snapshot)
        for key in ("requests_sent", "connections_opened", "reconnects",
                    "retries_used", "reuse_ratio"):
            assert key in snapshot

    def test_edge_gateway(self):
        gateway = EdgeGateway("http://127.0.0.1:1", flush_size=4)
        snapshot = gateway.stats_snapshot()
        assert_uniform(snapshot)
        for key in ("checkins_added", "flushes", "requests_made", "pending"):
            assert key in snapshot

    def test_faulty_proxy(self):
        proxy = FaultyProxy("http://127.0.0.1:1", seed=0)
        snapshot = proxy.stats_snapshot()
        assert_uniform(snapshot)
        assert snapshot["connections"] == 0

    def test_live_client_counts(self):
        from repro.serve.service import CrowdService

        with CrowdService(make_core()) as service:
            client = ServiceClient(service.url)
            client.status()
            client.status()
            snapshot = client.stats_snapshot()
        assert_uniform(snapshot)
        assert snapshot["requests_sent"] == 2
        assert snapshot["connections_opened"] >= 1
        assert snapshot["reuse_ratio"] >= 1.0
