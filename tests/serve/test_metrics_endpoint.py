"""Live ``GET /v1/metrics`` + request tracing on a real CrowdService."""

import json
import os
import urllib.request

import numpy as np
import pytest

from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.serve import CrowdService, ServiceClient

from tests.serve.test_service import NUM_PARAMETERS, checkin_for, make_core


@pytest.fixture()
def observed(tmp_path):
    """A live service with metrics + spooled tracing enabled."""
    metrics = MetricsRegistry("test-serve")
    tracer = TraceRecorder(capacity=64, trace_dir=str(tmp_path), name="test")
    with CrowdService(make_core(), metrics=metrics, tracer=tracer) as live:
        yield live, metrics, tracer
    tracer.close()


def drive_traffic(service, rounds=3):
    client = ServiceClient(service.url)
    token = client.join(7)
    for _ in range(rounds):
        client.checkins([checkin_for(client, 7, token)])
    client.status()
    # Counters and traces are booked before the response leaves; drain
    # only settles the in-flight gauge for in-process snapshot reads.
    assert service.drain()
    return client


class TestMetricsEndpoint:
    def test_prometheus_text_scrape(self, observed):
        service, _, _ = observed
        drive_traffic(service)
        with urllib.request.urlopen(service.url + "/v1/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert 'service_requests_total{endpoint="join"} 1' in text
        assert 'service_requests_total{endpoint="checkins"} 3' in text
        assert "core_checkin_batches_total 3" in text
        assert "# TYPE service_request_seconds histogram" in text
        assert 'service_request_seconds_bucket{endpoint="checkins",le="+Inf"} 3' in text

    def test_json_scrape_matches_registry(self, observed):
        service, metrics, _ = observed
        drive_traffic(service)
        with urllib.request.urlopen(
            service.url + "/v1/metrics?format=json"
        ) as response:
            assert response.headers["Content-Type"] == "application/json"
            scraped = json.loads(response.read())
        assert scraped["enabled"] is True
        assert scraped["registry"] == "test-serve"
        by_name = {
            (c["name"], c["labels"].get("endpoint")): c["value"]
            for c in scraped["counters"]
        }
        assert by_name[("service_requests_total", "checkins")] == 3
        # Scrape-time gauges mirror the core's counters.
        gauges = {g["name"]: g["value"] for g in scraped["gauges"]}
        assert gauges["core_iteration"] == 3.0
        assert gauges["service_uptime_seconds"] > 0.0

    def test_client_metrics_snapshot_helper(self, observed):
        service, _, _ = observed
        client = drive_traffic(service)
        scraped = client.metrics_snapshot()
        assert scraped["enabled"] is True

    def test_latency_histogram_has_percentiles(self, observed):
        service, metrics, _ = observed
        drive_traffic(service, rounds=5)
        snapshot = service.metrics_snapshot()
        [hist] = [
            h for h in snapshot["histograms"]
            if h["name"] == "service_request_seconds"
            and h["labels"].get("endpoint") == "checkins"
        ]
        assert hist["count"] == 5
        pcts = hist["percentiles"]
        assert pcts["p50"] is not None
        assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]

    def test_disabled_mode_still_answers_200(self):
        with CrowdService(make_core()) as service:
            with urllib.request.urlopen(
                service.url + "/v1/metrics?format=json"
            ) as response:
                assert response.status == 200
                scraped = json.loads(response.read())
        assert scraped["enabled"] is False
        assert scraped["counters"] == []

    def test_post_metrics_is_method_not_allowed(self, observed):
        service, _, _ = observed
        request = urllib.request.Request(
            service.url + "/v1/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 405


class TestStatusExtensions:
    def test_uptime_and_pid(self, observed):
        service, _, _ = observed
        client = ServiceClient(service.url)
        status = client.status()
        assert status.uptime_seconds is not None
        assert status.uptime_seconds >= 0.0
        assert status.pid == os.getpid()

    def test_plain_service_omits_nothing_required(self):
        # Without obs the status endpoint still reports uptime + pid —
        # they come from the service, not the registry.
        with CrowdService(make_core()) as service:
            status = ServiceClient(service.url).status()
        assert status.uptime_seconds is not None
        assert status.pid == os.getpid()


class TestTracing:
    def test_request_phases_recorded(self, observed):
        service, _, tracer = observed
        drive_traffic(service)
        records = tracer.snapshot()
        checkin_traces = [
            r for r in records if r["trace"] == "POST /v1/checkins"
        ]
        assert len(checkin_traces) == 3
        for record in checkin_traces:
            assert record["status"] == 200
            for phase in ("decode", "lock_wait", "core_apply", "encode"):
                assert phase in record["phases"], record
            assert record["duration_ms"] > 0

    def test_jsonl_spool_written(self, observed, tmp_path):
        service, _, tracer = observed
        drive_traffic(service)
        assert tracer.path is not None
        lines = [
            json.loads(line)
            for line in open(tracer.path).read().splitlines()
        ]
        assert len(lines) == len(tracer.snapshot())
        assert {line["trace"] for line in lines} >= {
            "POST /v1/join", "POST /v1/checkins", "GET /v1/status",
        }

    def test_error_requests_traced_with_status(self, observed):
        service, _, tracer = observed
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(service.url + "/v1/nope")
        assert service.drain()
        statuses = [r["status"] for r in tracer.snapshot()]
        assert 404 in statuses


class TestErrorCounters:
    def test_errors_labelled_by_endpoint(self, observed):
        service, metrics, _ = observed
        client = ServiceClient(service.url)
        token = client.join(3)
        bad = CheckinMessage(
            device_id=3, token=token,
            gradient=np.full(NUM_PARAMETERS, np.nan),
            num_samples=1, noisy_error_count=0,
            noisy_label_counts=np.array([1, 0], dtype=np.int64),
            checkout_iteration=0,
        )
        from repro.serve import RemoteServiceError

        with pytest.raises(RemoteServiceError):
            client.checkins([bad])
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                urllib.request.Request(
                    service.url + "/v1/checkins", data=b"garbage",
                    method="POST",
                )
            )
        assert service.drain()
        snapshot = service.metrics_snapshot()
        errors = {
            c["labels"].get("endpoint"): c["value"]
            for c in snapshot["counters"]
            if c["name"] == "service_errors_total" and c["value"]
        }
        assert errors.get("checkins", 0) >= 1
