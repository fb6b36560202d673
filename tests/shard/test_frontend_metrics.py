"""Front-end ``/v1/metrics``: per-shard scrapes merge into one document."""

import json
import urllib.request

import pytest

from repro.core.auth import DeviceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServiceClient
from repro.serve.service import CrowdService
from repro.shard import ShardFrontEnd, ShardRouter, StaticEndpoints

from tests.persist.conftest import make_message, traffic_rng  # noqa: F401
from tests.shard.conftest import SERVER_KEY, make_core, owned_devices


class ObservedTier:
    """Two observed CrowdService workers behind an observed front end."""

    def __init__(self, num_shards=2):
        self.router = ShardRouter(num_shards)
        self.registries = [
            MetricsRegistry(f"worker-{shard}") for shard in range(num_shards)
        ]
        self.services = [
            CrowdService(
                make_core(registry=DeviceRegistry(server_key=SERVER_KEY)),
                port=0, shard_epoch=0, metrics=registry,
            ).start()
            for registry in self.registries
        ]
        self.endpoints = StaticEndpoints({
            shard: (service.url, 0)
            for shard, service in enumerate(self.services)
        })
        self.frontend_registry = MetricsRegistry("frontend")
        self.frontend = ShardFrontEnd(
            self.router, self.endpoints, metrics=self.frontend_registry
        ).start()

    def close(self):
        self.frontend.stop()
        for service in self.services:
            service.stop()


@pytest.fixture
def observed_tier():
    tier = ObservedTier()
    yield tier
    tier.close()


def drive(tier, rng, per_shard=3):
    client = ServiceClient(tier.frontend.url)
    for shard in range(2):
        device = owned_devices(tier.router, shard)[0]
        token = client.join(device)
        for _ in range(per_shard):
            core = tier.services[shard].core
            client.checkins([make_message(core, device, token, rng)])
    client.status()
    # Workers book their counters before they ack; drain only settles
    # each in-flight gauge so the next scrape sees it at rest.
    for service in tier.services:
        assert service.drain()
    return client


def scrape(url, fmt="json"):
    with urllib.request.urlopen(f"{url}/v1/metrics?format={fmt}") as response:
        body = response.read()
    return json.loads(body) if fmt == "json" else body.decode()


class TestFrontEndAggregation:
    def test_merged_scrape_has_per_shard_series(self, observed_tier, traffic_rng):
        drive(observed_tier, traffic_rng)
        merged = scrape(observed_tier.frontend.url)
        assert merged["enabled"] is True
        batches = {
            c["labels"].get("shard"): c["value"]
            for c in merged["counters"]
            if c["name"] == "core_checkin_batches_total"
        }
        assert batches == {"0": 3, "1": 3}
        # Front-end-side series ride along in the same document.
        frontend_counts = {
            c["labels"].get("endpoint"): c["value"]
            for c in merged["counters"]
            if c["name"] == "frontend_requests_total" and c["value"]
        }
        assert frontend_counts.get("checkins") == 6

    def test_merged_histograms_add_bucketwise(self, observed_tier, traffic_rng):
        drive(observed_tier, traffic_rng)
        merged = scrape(observed_tier.frontend.url)
        per_shard = [
            h for h in merged["histograms"]
            if h["name"] == "service_request_seconds"
            and h["labels"].get("endpoint") == "checkins"
        ]
        assert {h["labels"]["shard"] for h in per_shard} == {"0", "1"}
        for hist in per_shard:
            assert hist["count"] == 3
            assert hist["cumulative"][-1] <= hist["count"]

    def test_prometheus_text_from_frontend(self, observed_tier, traffic_rng):
        drive(observed_tier, traffic_rng)
        text = scrape(observed_tier.frontend.url, fmt="text")
        assert 'core_checkin_batches_total{shard="0"} 3' in text
        assert 'core_checkin_batches_total{shard="1"} 3' in text
        assert "# TYPE frontend_request_seconds histogram" in text

    def test_scrape_counts_and_skips_dead_worker(self, observed_tier, traffic_rng):
        drive(observed_tier, traffic_rng)
        observed_tier.services[1].stop()
        scrape(observed_tier.frontend.url)  # failure recorded during this one
        # The frontend's own registry is snapshotted before the worker
        # scrapes, so the failure counter lands in the *next* document.
        merged = scrape(observed_tier.frontend.url)
        shards_present = {
            c["labels"].get("shard")
            for c in merged["counters"]
            if c["name"] == "core_checkin_batches_total"
        }
        assert shards_present == {"0"}
        failures = [
            c["value"] for c in merged["counters"]
            if c["name"] == "frontend_metrics_scrape_failures_total"
        ]
        assert failures and failures[0] >= 1

    def test_aggregated_status_rows_carry_uptime_and_pid(
        self, observed_tier, traffic_rng
    ):
        drive(observed_tier, traffic_rng)
        with urllib.request.urlopen(
            observed_tier.frontend.url + "/v1/status"
        ) as response:
            status = json.loads(response.read())["body"]
        assert status["uptime_seconds"] >= 0.0
        assert status["pid"] > 0
        assert len(status["shards"]) == 2
        for row in status["shards"]:
            assert row["uptime_seconds"] >= 0.0
            assert row["pid"] > 0


class TestDisabledFrontEnd:
    def test_disabled_frontend_still_merges_enabled_workers(self, traffic_rng):
        tier = ObservedTier()
        try:
            # Swap in a front end with no registry of its own.
            tier.frontend.stop()
            tier.frontend = ShardFrontEnd(tier.router, tier.endpoints).start()
            drive(tier, traffic_rng)
            merged = scrape(tier.frontend.url)
            assert merged["enabled"] is True  # worker scrapes were live
            assert any(
                c["name"] == "core_checkin_batches_total"
                for c in merged["counters"]
            )
        finally:
            tier.close()
