"""Live-server tests: CrowdService request validation and robustness.

Each test talks real HTTP over loopback.  The overriding contract: no
payload — malformed, version-mismatched, stale, oversized, or plain
garbage — crashes the service; every rejection is a 4xx/5xx ``error``
envelope and the very next valid request still succeeds.

``TestHostContract`` holds the part of that contract that is the
:class:`~repro.serve.host.HttpHost`'s, and runs it against both hosts
(``CrowdService`` and a two-shard ``ShardFrontEnd``) through one
parametrized fixture.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.core.server_core import ServerCore
from repro.models import MulticlassLogisticRegression
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    CrowdService,
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
    wire,
)
from repro.serve.host import MAX_BODY_BYTES
from repro.shard import ShardFrontEnd, ShardRouter, StaticEndpoints

DIM, CLASSES = 3, 2
NUM_PARAMETERS = MulticlassLogisticRegression(DIM, CLASSES).num_parameters


def make_core(max_iterations=1000, target_error=None, dim=DIM, classes=CLASSES):
    return ServerCore(
        MulticlassLogisticRegression(dim, classes),
        config=ServerConfig(
            max_iterations=max_iterations, target_error=target_error
        ),
    )


@pytest.fixture()
def service():
    with CrowdService(make_core()) as live:
        yield live


def raw_post(url, path, body: bytes, headers=None):
    """POST raw bytes, returning (status, body) without raising."""
    request = urllib.request.Request(
        url + path, data=body, method="POST",
        headers=headers or {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def checkin_for(client, device_id, token):
    response = client.checkout(CheckoutRequest(device_id, token, 0.0))
    return CheckinMessage(
        device_id=device_id, token=token,
        gradient=np.full(NUM_PARAMETERS, 0.01),
        num_samples=1, noisy_error_count=0,
        noisy_label_counts=np.array([1, 0], dtype=np.int64),
        checkout_iteration=response.server_iteration,
    )


class TestHappyPath:
    def test_join_checkout_checkin_status(self, service):
        client = ServiceClient(service.url)
        token = client.join(7)
        response = client.checkout(CheckoutRequest(7, token, 0.0))
        assert response.parameters.shape == (NUM_PARAMETERS,)
        result = client.checkins([checkin_for(client, 7, token)])
        assert result.acks[0] is not None
        assert result.server_iteration == 1
        status = client.status(include_parameters=True)
        assert status.iteration == 1
        assert status.registered_devices == 1
        assert status.parameters.shape == (NUM_PARAMETERS,)
        assert service.total_errors == 0

    def test_batch_checkin_maps_onto_handle_checkins(self, service):
        client = ServiceClient(service.url)
        tokens = {m: client.join(m) for m in range(4)}
        batch = [checkin_for(client, m, tokens[m]) for m in range(4)]
        # Poison one message with a bad token: batch semantics reject
        # that slot (null ack) and apply the rest.
        batch[2] = CheckinMessage(
            device_id=2, token="forged", gradient=batch[2].gradient,
            num_samples=1, noisy_error_count=0,
            noisy_label_counts=batch[2].noisy_label_counts,
            checkout_iteration=0,
        )
        result = client.checkins(batch)
        assert [ack is not None for ack in result.acks] == [
            True, True, False, True]
        assert service.core.iteration == 3
        assert service.core.rejected_messages == 1

    def test_join_registers_with_core_registry(self, service):
        client = ServiceClient(service.url)
        client.join(3)
        assert service.core.registry.is_registered(3)


class TestRejections:
    def test_unknown_device_is_401(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(RemoteAuthenticationError) as excinfo:
            client.checkout(CheckoutRequest(99, "nope", 0.0))
        assert excinfo.value.http_status == 401
        assert excinfo.value.code == wire.ErrorCode.AUTH_FAILED

    def test_stale_traffic_after_stop_is_409(self):
        with CrowdService(make_core(max_iterations=1)) as service:
            client = ServiceClient(service.url)
            token = client.join(0)
            message = checkin_for(client, 0, token)
            assert client.checkins([message]).stopped
            with pytest.raises(RemoteServiceError) as excinfo:
                client.checkout(CheckoutRequest(0, token, 1.0))
            assert excinfo.value.http_status == 409
            assert excinfo.value.code == wire.ErrorCode.STOPPED
            with pytest.raises(RemoteServiceError) as excinfo:
                client.checkins([message])
            assert excinfo.value.http_status == 409

    def test_version_mismatch_is_426(self, service):
        body = json.dumps({
            "protocol": wire.PROTOCOL_VERSION + 1,
            "kind": "checkout_request",
            "body": {"type": "checkout_request", "device_id": 0,
                     "token": "t", "request_time": 0.0},
        }).encode()
        status, payload = raw_post(service.url, "/v1/checkout", body)
        assert status == 426
        assert wire.decode_error(payload).code == wire.ErrorCode.VERSION_MISMATCH

    def test_unknown_route_is_404_and_method_405(self, service):
        status, payload = raw_post(service.url, "/v2/checkout", b"{}")
        assert status == 404
        assert wire.decode_error(payload).code == wire.ErrorCode.NOT_FOUND
        request = urllib.request.Request(service.url + "/v1/checkout")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_oversized_body_is_413(self, service):
        request = urllib.request.Request(
            service.url + "/v1/checkout", data=b"x", method="POST",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413

    def test_join_disabled(self):
        core = make_core()
        core.register_device(0)
        with CrowdService(core, allow_join=False) as service:
            client = ServiceClient(service.url)
            with pytest.raises(RemoteAuthenticationError):
                client.join(1)
            # Pre-provisioned devices still work.
            token = core.registry.register(0)
            assert client.checkout(
                CheckoutRequest(0, token, 0.0)).parameters.size

    def test_stop_before_start_releases_port(self):
        # Construction binds the socket; stop() without a serve loop must
        # close it without blocking on a shutdown handshake.
        first = CrowdService(make_core())
        port = first.port
        first.stop()
        second = CrowdService(make_core(), port=port)  # port is free again
        second.stop()
        second.stop()  # idempotent at any lifecycle point

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.status()
        assert excinfo.value.code == wire.ErrorCode.UNREACHABLE


class TestRobustness:
    FUZZ_BODIES = [
        b"",
        b"garbage",
        b"\x00\x01\x02\xff\xfe",
        b"{",
        b'{"protocol": %d}' % wire.PROTOCOL_VERSION,
        b'[]',
        b'{"protocol": %d, "kind": "checkout_request", "body": {}}' % wire.PROTOCOL_VERSION,
        b'{"protocol": %d, "kind": "checkin_batch", "body": {"messages": [{}]}}' % wire.PROTOCOL_VERSION,
        json.dumps({"protocol": wire.PROTOCOL_VERSION, "kind": "checkin_batch", "body": {
            "messages": [{"type": "checkin", "device_id": "x"}]}}).encode(),
        json.dumps({"protocol": wire.PROTOCOL_VERSION, "kind": "checkout_request", "body": {
            "type": "checkout_request", "device_id": 0, "token": "t",
            "request_time": "soon"}}).encode(),
        "∞ unicode ≠ ascii".encode("utf-8"),
    ]

    @pytest.mark.parametrize("path", ["/v1/checkout", "/v1/checkins", "/v1/join"])
    def test_fuzz_bodies_are_4xx_and_server_survives(self, service, path):
        for body in self.FUZZ_BODIES:
            status, payload = raw_post(service.url, path, body)
            assert 400 <= status < 500, (path, body[:40], status)
            # Every error is a decodable typed envelope.
            error = wire.decode_error(payload)
            assert error.code in (
                wire.ErrorCode.MALFORMED, wire.ErrorCode.VERSION_MISMATCH,
                wire.ErrorCode.AUTH_FAILED,
            )
        # The service is still fully functional afterwards.
        client = ServiceClient(service.url)
        token = client.join(1)
        result = client.checkins([checkin_for(client, 1, token)])
        assert result.acks[0] is not None
        assert service.total_errors == len(self.FUZZ_BODIES)

    def test_wrong_envelope_kind_on_route(self, service):
        # A status envelope POSTed to /v1/checkout: valid wire, wrong kind.
        status, payload = raw_post(
            service.url, "/v1/checkout",
            wire.encode_envelope("status", {}).encode(),
        )
        assert status == 400
        assert wire.decode_error(payload).code == wire.ErrorCode.MALFORMED

    def test_internal_errors_are_500_and_survivable(self, service, monkeypatch):
        # Force a genuine bug in a handler: the response must be a typed
        # 500 envelope, and the next request must succeed.
        def boom(request):
            raise RuntimeError("synthetic handler bug")

        monkeypatch.setattr(service.core, "handle_checkout", boom)
        client = ServiceClient(service.url)
        token = client.join(0)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkout(CheckoutRequest(0, token, 0.0))
        assert excinfo.value.http_status == 500
        assert excinfo.value.code == wire.ErrorCode.INTERNAL
        monkeypatch.undo()
        assert client.checkout(CheckoutRequest(0, token, 0.0)) is not None
        assert service.errors_returned[wire.ErrorCode.INTERNAL] == 1


@pytest.fixture(params=["service", "frontend"])
def build_host(request):
    """``build(port=0, **core)`` → an unstarted host of the parametrized kind.

    The front end is a two-shard in-process tier: live ``CrowdService``
    workers behind ``StaticEndpoints``, torn down with the fixture.
    """
    workers = []

    def build(port=0, **core):
        metrics = MetricsRegistry("contract")
        if request.param == "service":
            return CrowdService(make_core(**core), port=port, metrics=metrics)
        shards = [CrowdService(make_core(**core)).start() for _ in range(2)]
        workers.extend(shards)
        endpoints = StaticEndpoints(
            {shard: worker.url for shard, worker in enumerate(shards)}
        )
        return ShardFrontEnd(ShardRouter(2), endpoints, port=port, metrics=metrics)

    yield build
    for worker in workers:
        worker.stop()


@pytest.fixture()
def host(build_host):
    with build_host() as live:
        yield live


def exchange(conn, method, path, body=None):
    """One request on an open ``http.client`` connection, fully read."""
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response, response.read()


class TestHostContract:
    def test_unknown_route_is_404_and_wrong_method_is_405(self, host):
        status, payload = raw_post(host.url, "/v2/checkout", b"{}")
        assert status == 404
        assert wire.decode_error(payload).code == wire.ErrorCode.NOT_FOUND
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(host.url + "/v1/checkout", timeout=10)
        assert excinfo.value.code == 405
        assert (wire.decode_error(excinfo.value.read()).code
                == wire.ErrorCode.METHOD_NOT_ALLOWED)

    def test_oversized_body_is_413(self, host):
        status, payload = raw_post(
            host.url, "/v1/checkout", b"x",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413
        assert wire.decode_error(payload).code == wire.ErrorCode.PAYLOAD_TOO_LARGE

    @pytest.mark.parametrize("length", ["-1", "five"])
    def test_bad_content_length_is_400(self, host, length):
        with socket.create_connection((host.host, host.port), timeout=10) as sock:
            sock.sendall(
                f"POST /v1/checkout HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
            assert wire.decode_error(response.read()).code == wire.ErrorCode.MALFORMED

    @pytest.mark.parametrize("path", ["/v1/checkout", "/v1/checkins", "/v1/join"])
    def test_fuzz_bodies_are_4xx_and_host_survives(self, host, path):
        for body in TestRobustness.FUZZ_BODIES:
            status, payload = raw_post(host.url, path, body)
            assert 400 <= status < 500, (path, body[:40], status)
            assert wire.decode_error(payload).code in (
                wire.ErrorCode.MALFORMED, wire.ErrorCode.VERSION_MISMATCH,
                wire.ErrorCode.AUTH_FAILED,
            )
        client = ServiceClient(host.url)
        client.join(1)
        assert client.status().registered_devices == 1
        assert host.total_errors == len(TestRobustness.FUZZ_BODIES)

    def test_internal_errors_are_500_and_survivable(self, host, monkeypatch):
        def boom():
            raise RuntimeError("synthetic handler bug")

        monkeypatch.setattr(host, "metrics_snapshot", boom)
        client = ServiceClient(host.url)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.metrics_snapshot()
        assert excinfo.value.http_status == 500
        assert excinfo.value.code == wire.ErrorCode.INTERNAL
        monkeypatch.undo()
        assert client.metrics_snapshot()["enabled"] is True
        assert host.errors_returned[wire.ErrorCode.INTERNAL] == 1

    def test_stop_before_start_releases_port(self, build_host):
        # Construction binds the socket; stop() without a serve loop must
        # close it without blocking on a shutdown handshake.
        first = build_host()
        port = first.port
        first.stop()
        second = build_host(port=port)  # port is free again
        second.stop()
        second.stop()  # idempotent at any lifecycle point

    def test_error_response_announces_the_close(self, host):
        # The host closes after an error; a keep-alive client must learn
        # that from the response, not from a dead socket (which costs it
        # a stale-socket replay).
        client = ServiceClient(host.url)
        client.status()
        with pytest.raises(RemoteAuthenticationError):
            client.checkout(CheckoutRequest(99, "nope", 0.0))
        client.status()
        stats = client.stats_snapshot()
        assert stats["reconnects"] == 0
        assert stats["connections_opened"] == 2

    def test_stdlib_refusals_are_typed_and_counted(self, host):
        # Refusals the stdlib raises before do_GET/do_POST: an
        # unsupported method, then an unparseable request line.
        conn = http.client.HTTPConnection(host.host, host.port, timeout=10)
        response, payload = exchange(conn, "PUT", "/v1/status")
        assert response.status == 405
        assert response.getheader("Content-Type") == "application/json"
        assert wire.decode_error(payload).code == wire.ErrorCode.METHOD_NOT_ALLOWED
        with socket.create_connection((host.host, host.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/status one-word-too-many HTTP/1.1\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
            assert wire.decode_error(response.read()).code == wire.ErrorCode.MALFORMED
        assert host.drain()
        assert host.requests_served == 2
        assert host.errors_returned == {
            wire.ErrorCode.METHOD_NOT_ALLOWED: 1, wire.ErrorCode.MALFORMED: 1,
        }
        other_errors = [
            counter["value"] for counter in host.metrics_snapshot()["counters"]
            if counter["name"].endswith("_errors_total")
            and counter["labels"] == {"endpoint": "other"}
        ]
        assert other_errors == [2]

    def test_unread_body_does_not_desync_keepalive(self, host):
        # A declared body on a route that never reads one must not be
        # parsed as the next request line on the same socket.
        conn = http.client.HTTPConnection(host.host, host.port, timeout=10)
        for body in (b"hello", None):
            response, payload = exchange(conn, "GET", "/v1/status", body=body)
            assert response.status == 200
            assert wire.decode_status(payload).iteration == 0
        conn.close()


class TestHostStalls:
    """Waits that were the kernel's, not ours, and must stay gone.  Each
    bound sits an order of magnitude from both sides of its defect."""

    #: 44 ms per request with the response split in two segments (Nagle
    #: against the client's delayed ACK); ~0.2 ms in one.
    STALL_FREE_MS = 5.0

    def mean_ms(self, call, repeats=50):
        call()  # open the pooled connection outside the timed loop
        start = time.perf_counter()
        for _ in range(repeats):
            call()
        return (time.perf_counter() - start) * 1e3 / repeats

    def test_keepalive_status_does_not_stall(self, host):
        client = ServiceClient(host.url)
        assert self.mean_ms(client.status) < self.STALL_FREE_MS

    def test_keepalive_checkout_does_not_stall(self, build_host):
        # The 500-parameter model: a 5.4 kB response, still one segment.
        with build_host(dim=50, classes=10) as host:
            client = ServiceClient(host.url)
            request = CheckoutRequest(0, client.join(0), 0.0)
            assert client.checkout(request).parameters.size == 500
            assert (self.mean_ms(lambda: client.checkout(request))
                    < self.STALL_FREE_MS)

    def test_stop_returns_promptly(self, build_host):
        # The stdlib serve loop polls for a stop request every 0.5 s.
        host = build_host().start()
        client = ServiceClient(host.url)
        client.status()
        client.close()
        start = time.perf_counter()
        host.stop()
        assert time.perf_counter() - start < 0.25

    def test_a_crowd_can_join_at_once(self, host):
        # 64 connects released together: a listen backlog of 5 resets
        # most of them, and retries=0 turns every reset into a raise.
        crowd = 64
        barrier = threading.Barrier(crowd)
        failures = []

        def join(device_id):
            try:
                barrier.wait(timeout=30)
                client = ServiceClient(host.url, retries=0)
                client.join(device_id)
                client.close()
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=join, args=(m,)) for m in range(crowd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert ServiceClient(host.url).status().registered_devices == crowd

    def test_request_is_booked_before_its_response(self, host, monkeypatch):
        # Hold the handler thread *after* the real send: whatever it
        # still has to record then is invisible to a client that
        # already holds the response.
        send = host._send

        def send_then_linger(*args):
            send(*args)
            time.sleep(0.2)

        monkeypatch.setattr(host, "_send", send_then_linger)
        client = ServiceClient(host.url)
        client.status()
        assert host.requests_served == 1
        with pytest.raises(RemoteAuthenticationError):
            client.checkout(CheckoutRequest(99, "nope", 0.0))
        assert host.requests_served == 2
        assert host.errors_returned == {wire.ErrorCode.AUTH_FAILED: 1}
        booked = {
            (counter["name"].split("_", 1)[1], counter["labels"]["endpoint"]):
                counter["value"]
            for counter in host.metrics_snapshot()["counters"]
            if "endpoint" in counter["labels"] and counter["value"]
        }
        assert booked == {
            ("requests_total", "status"): 1,
            ("requests_total", "checkout"): 1,
            ("errors_total", "checkout"): 1,
        }
