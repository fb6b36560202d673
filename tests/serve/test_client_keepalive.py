"""Keep-alive discipline of :class:`ServiceClient`.

One pooled connection per thread, requests ride it back to back
(``reuse_ratio`` ≫ 1); a stale pooled socket triggers a transparent
reconnect-and-replay that is *not* a retry; genuinely transient failures
retry with backoff; typed 4xx answers never do.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.core.protocol import CheckinAck, CheckinMessage, CheckoutRequest
from repro.core.server_core import ServerCore
from repro.core.stopping import StopDecision
from repro.models import MulticlassLogisticRegression
from repro.serve import wire
from repro.serve.client import (
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
)
from repro.serve.service import CrowdService


def make_service(port: int = 0) -> CrowdService:
    core = ServerCore(
        MulticlassLogisticRegression(num_features=4, num_classes=3),
        config=ServerConfig(max_iterations=10_000),
    )
    return CrowdService(core, port=port)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_requests_reuse_one_connection():
    with make_service() as service:
        client = ServiceClient(service.url, timeout=5.0)
        client.join(0)
        for _ in range(24):
            client.status()
        assert client.requests_sent == 25
        assert client.connections_opened == 1
        assert client.reuse_ratio == 25.0
        assert client.reconnects == 0


def test_each_thread_gets_its_own_connection():
    with make_service() as service:
        client = ServiceClient(service.url, timeout=5.0)
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            for _ in range(5):
                client.status()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert client.requests_sent == 10
        assert client.connections_opened == 2


def one_shot_keepalive_stub(port: int, answer: Optional[str] = None) -> threading.Thread:
    """Serve one keep-alive 200 (default: a valid ``/v1/status``
    response), then hang up.

    The client pools the connection (the response did not announce a
    close); the silent FIN afterwards makes that pooled socket stale —
    the deterministic trigger for the reconnect-and-replay path.
    """
    if answer is None:
        answer = wire.encode_status(
            iteration=0, stop=StopDecision.running(), checkouts_served=0,
            rejected_messages=0, registered_devices=0, num_parameters=15,
        )
    body = answer.encode("utf-8")
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(1)

    def serve_once():
        conn, _ = listener.accept()
        conn.recv(65536)
        conn.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        conn.close()  # keep-alive promised, then a silent FIN
        listener.close()

    thread = threading.Thread(target=serve_once)
    thread.start()
    return thread


def test_stale_socket_reconnect_is_not_a_retry():
    port = free_port()
    stub = one_shot_keepalive_stub(port)
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
    assert client.status().iteration == 0
    stub.join()
    # The real service takes over the address; the pooled socket is dead.
    service = make_service(port)
    service.start()
    try:
        assert client.status().iteration == 0
        assert client.reconnects == 1
        assert client.retries_used == 0  # transparent, not a retry
        assert client.connections_opened == 2
    finally:
        service.stop()


def test_short_ack_list_is_refused_where_it_enters():
    # Callers zip acks against what they sent (GatewayAggregator.flush
    # against its callbacks): an answer one ack short must not get that far.
    port = free_port()
    stub = one_shot_keepalive_stub(port, wire.encode_checkin_result(
        [CheckinAck(device_id=0, server_iteration=1)], 1, StopDecision.running(),
    ))
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0, retries=0)
    messages = [
        CheckinMessage(
            device_id=device_id, token="tok", gradient=np.zeros(15),
            num_samples=1, noisy_error_count=0,
            noisy_label_counts=np.zeros(3, dtype=np.int64), checkout_iteration=0,
        )
        for device_id in (0, 1)
    ]
    with pytest.raises(RemoteServiceError) as excinfo:
        client.checkins(messages)
    stub.join(timeout=10)
    assert not stub.is_alive()
    assert excinfo.value.code == wire.ErrorCode.MALFORMED
    assert "1 acks for 2 check-ins" in str(excinfo.value)


def test_fresh_socket_failure_is_transient_not_stale():
    # Nothing listening: a fresh-socket failure surfaces as unreachable
    # after exhausting retries — never as a silent reconnect loop.
    port = free_port()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=1.0,
                           retries=2, backoff=0.01, backoff_max=0.02)
    with pytest.raises(RemoteServiceError) as excinfo:
        client.status()
    assert excinfo.value.code == wire.ErrorCode.UNREACHABLE
    assert client.retries_used == 2
    assert client.reconnects == 0


def test_retries_ride_out_a_flaky_start():
    # The "server" hangs up on the first 3 connections before the real
    # service takes over the port; a retrying client rides it out.
    port = free_port()
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(8)
    state = {}

    def flaky_then_up():
        for _ in range(3):
            conn, _ = listener.accept()
            conn.close()
        listener.close()
        state["service"] = make_service(port).start()

    starter = threading.Thread(target=flaky_then_up)
    starter.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0,
                               retries=20, backoff=0.02, backoff_max=0.1)
        assert client.status().iteration == 0
        assert client.retries_used >= 3
        assert client.reconnects == 0  # fresh-socket failures, not staleness
    finally:
        starter.join()
        if "service" in state:
            state["service"].stop()


def test_response_cut_mid_body_is_transient():
    # A server SIGKILLed while writing: the headers promise 100 bytes,
    # 11 arrive, the socket closes.  That is ``IncompleteRead`` (an
    # ``HTTPException``, not an ``OSError``) — it must surface typed,
    # be retried, and never leave the dead connection pooled.
    port = free_port()
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen(8)
    listener.settimeout(10.0)  # a client that stops coming ends the stub
    state = {}

    def truncate(times):
        for _ in range(times):
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"version":'
            )
            conn.close()

    def truncate_then_up():
        try:
            truncate(3)  # every attempt of the retries=2 client
            state["exhausted"].wait(timeout=30)
            truncate(1)
        except OSError:
            return
        finally:
            listener.close()
        state["service"] = make_service(port).start()

    state["exhausted"] = threading.Event()
    starter = threading.Thread(target=truncate_then_up)
    starter.start()
    try:
        url = f"http://127.0.0.1:{port}"
        client = ServiceClient(url, timeout=5.0, retries=2, backoff=0.01,
                               backoff_max=0.02)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.status()
        assert excinfo.value.code == wire.ErrorCode.UNREACHABLE
        assert client.retries_used == 2
        assert client.connections_opened == 3  # none was kept pooled
        assert client.reconnects == 0
        state["exhausted"].set()
        patient = ServiceClient(url, timeout=5.0, retries=20, backoff=0.02,
                                backoff_max=0.1)
        assert patient.status().iteration == 0
        assert patient.retries_used >= 1
    finally:
        state["exhausted"].set()
        starter.join(timeout=30)
        assert not starter.is_alive()
        if "service" in state:
            state["service"].stop()


def test_typed_4xx_answers_never_retry():
    with make_service() as service:
        client = ServiceClient(service.url, timeout=5.0, retries=5,
                               backoff=0.01)
        request = CheckoutRequest(device_id=0, token="bogus", request_time=0.0)
        with pytest.raises(RemoteAuthenticationError):
            client.checkout(request)
        assert client.retries_used == 0


def test_close_releases_the_pooled_connection():
    with make_service() as service:
        client = ServiceClient(service.url, timeout=5.0)
        client.status()
        client.close()
        client.status()
        assert client.connections_opened == 2
        assert client.reconnects == 0
