"""The HTTP/1.1 framing both ends share (:mod:`repro.serve.http1`).

Our host must serve the third-party clients an operator points at it,
our client must survive third-party servers, and what neither can frame
unambiguously is refused with a typed error — on both hosts
(``CrowdService`` and a two-shard ``ShardFrontEnd``) wherever a host is
involved, through ``test_service``'s ``host`` / ``build_host`` fixtures.
"""

import contextlib
import http.client
import io
import socket
import subprocess
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import CheckoutRequest
from repro.core.stopping import StopDecision
from repro.serve import RemoteServiceError, ServiceClient, http1, wire
from repro.serve.host import MAX_BODY_BYTES
from repro.shard import ShardFrontEnd
from tests.persist.test_kill_resume import serve_env
from tests.serve.test_service import build_host, host  # noqa: F401 - fixtures

STATUS_BODY = wire.encode_status(
    iteration=7, stop=StopDecision.running(), checkouts_served=0,
    rejected_messages=0, registered_devices=0, num_parameters=15,
).encode("utf-8")


# --------------------------------------------------------------------- #
# (a) third-party clients against our hosts                              #
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def raw_connection(host):
    with socket.create_connection((host.host, host.port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        yield sock


def read_reply(sock):
    """``(response, body, server_closed)`` of the next response on ``sock``."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = response.read()
    sock.settimeout(0.1)  # a loopback FIN trails its response by microseconds
    try:
        closed = sock.recv(1) == b""
    except socket.timeout:
        closed = False
    return response, body, closed


def assert_refused_and_closed(host, request: bytes, mentions: str = ""):
    """``request`` is answered a typed 400 ``malformed``, the close is
    announced and carried out, and the host serves on."""
    before = host.total_errors
    with raw_connection(host) as sock:
        sock.sendall(request)
        response, body, closed = read_reply(sock)
    assert response.status == 400
    error = wire.decode_error(body)
    assert error.code == wire.ErrorCode.MALFORMED
    assert mentions in str(error)
    assert response.getheader("Connection") == "close"
    assert closed
    assert host.total_errors == before + 1
    assert ServiceClient(host.url).status().iteration == 0


class TestForeignClients:
    def test_urllib_request(self, host):
        with urllib.request.urlopen(host.url + "/v1/status", timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            assert response.headers["Date"].endswith(" GMT")
            assert response.headers["Server"] is None
            assert wire.decode_status(response.read()).iteration == 0

    def test_http_client_keepalive_three_requests_one_socket(self, host):
        conn = http.client.HTTPConnection(host.host, host.port, timeout=10)
        conn.connect()
        first_socket = conn.sock
        for _ in range(3):
            conn.request("GET", "/v1/status")
            response = conn.getresponse()
            assert wire.decode_status(response.read()).iteration == 0
            assert response.getheader("Connection") is None
            assert not response.will_close
            assert conn.sock is first_socket  # never dropped and re-dialled
        conn.close()

    def test_http10_request_is_answered_then_closed(self, host):
        with raw_connection(host) as sock:
            sock.sendall(b"GET /v1/status HTTP/1.0\r\n\r\n")
            response, body, closed = read_reply(sock)
        assert response.status == 200
        assert wire.decode_status(body).iteration == 0
        assert response.getheader("Connection") == "close"
        assert closed

    def test_http10_keepalive_request_stays_open(self, host):
        with raw_connection(host) as sock:
            for _ in range(2):
                sock.sendall(b"GET /v1/status HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                response, body, closed = read_reply(sock)
                assert wire.decode_status(body).iteration == 0
                assert not closed
                sock.settimeout(10)

    def test_connection_close_request_is_honoured(self, host):
        with raw_connection(host) as sock:
            sock.sendall(b"GET /v1/status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            response, _, closed = read_reply(sock)
        assert response.status == 200
        assert response.getheader("Connection") == "close"
        assert closed

    def test_expect_100_continue_is_answered_before_the_body(self, host):
        body = wire.encode_join_request(7).encode("utf-8")
        with raw_connection(host) as sock:
            sock.sendall(
                b"POST /v1/join HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response, payload, closed = read_reply(sock)
        assert response.status == 200
        assert wire.decode_join_response(payload)[0] == 7
        assert not closed

    def test_expect_is_not_encouraged_when_the_body_is_refused(self, host):
        with raw_connection(host) as sock:
            sock.sendall(
                b"POST /v1/join HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
            )
            # The final answer comes first: no interim 100 invites 64 MiB.
            assert sock.recv(12, socket.MSG_PEEK) == b"HTTP/1.1 413"
            response, payload, closed = read_reply(sock)
        assert response.status == 413
        assert wire.decode_error(payload).code == wire.ErrorCode.PAYLOAD_TOO_LARGE
        assert closed

    def test_request_dribbled_one_byte_per_send(self, host):
        body = wire.encode_join_request(3).encode("utf-8")
        request = (
            b"POST /v1/join HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with raw_connection(host) as sock:
            for index in range(len(request)):
                sock.sendall(request[index:index + 1])
            response, payload, closed = read_reply(sock)
        assert response.status == 200
        assert wire.decode_join_response(payload)[0] == 3
        assert not closed


class TestAmbiguousRequestsAreRefused:
    def test_conflicting_content_lengths(self, host):
        assert_refused_and_closed(
            host,
            b"POST /v1/join HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
            b"Content-Length: 40\r\n\r\n{}",
            mentions="Content-Length",
        )

    def test_repeated_equal_content_length_is_not_a_conflict(self, host):
        body = wire.encode_join_request(5).encode("utf-8")
        length = b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        with raw_connection(host) as sock:
            sock.sendall(b"POST /v1/join HTTP/1.1\r\n" + length + length + b"\r\n" + body)
            response, payload, _ = read_reply(sock)
        assert response.status == 200
        assert wire.decode_join_response(payload)[0] == 5

    def test_transfer_encoding_chunked(self, host):
        # Read as an empty body, the chunks would stay on the socket and
        # be parsed as the next request.
        assert_refused_and_closed(
            host,
            b"POST /v1/join HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
            mentions="Transfer-Encoding",
        )

    def test_overlong_line(self, host):
        assert_refused_and_closed(
            host,
            b"GET /v1/status HTTP/1.1\r\nX-Pad: "
            + b"a" * (http1.MAX_LINE_BYTES + 1) + b"\r\n\r\n",
            mentions="line longer",
        )

    def test_too_many_headers(self, host):
        assert_refused_and_closed(
            host,
            b"GET /v1/status HTTP/1.1\r\n"
            + b"".join(b"X-%d: 1\r\n" % n for n in range(http1.MAX_HEADERS + 1))
            + b"\r\n",
            mentions="headers",
        )

    @pytest.mark.parametrize("version", [b"HTTP/2.0", b"HTTP/1.x", b"HTTPS/1.1"])
    def test_unsupported_or_malformed_version(self, host, version):
        assert_refused_and_closed(
            host, b"GET /v1/status " + version + b"\r\nHost: x\r\n\r\n",
            mentions="request line",
        )
        # Refused before routing: booked under "other", not "status".
        assert {
            counter["labels"]["endpoint"]: counter["value"]
            for counter in host.metrics_snapshot()["counters"]
            if counter["name"].endswith("_errors_total") and counter["value"]
        } == {"other": 1}

    def test_header_line_without_a_colon(self, host):
        assert_refused_and_closed(
            host, b"GET /v1/status HTTP/1.1\r\nno colon here\r\n\r\n",
        )

    def test_body_cut_short_by_the_client(self, host):
        # The declared length never arrives: nothing is routed on a
        # partial body (the answer goes to a peer that stopped sending).
        with raw_connection(host) as sock:
            sock.sendall(b"POST /v1/join HTTP/1.1\r\nContent-Length: 40\r\n\r\n{")
            sock.shutdown(socket.SHUT_WR)
            response, payload, closed = read_reply(sock)
        assert response.status == 400
        assert "cut short" in str(wire.decode_error(payload))
        assert closed

    def test_a_connection_closed_without_a_request_is_not_an_error(self, host):
        with raw_connection(host):
            pass
        assert ServiceClient(host.url).status().iteration == 0
        assert host.drain()
        assert host.requests_served == 1
        assert host.total_errors == 0


# --------------------------------------------------------------------- #
# (b) our client against a third-party server                            #
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def stdlib_fake(respond, protocol="HTTP/1.1"):
    """A stdlib ``http.server`` answering every GET through ``respond``."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def do_GET(self):
            respond(self)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def answer(handler, *headers, body=STATUS_BODY, declared=None):
    """A 200 with ``body``; ``declared`` is the ``Content-Length`` to
    claim (default: the true one, ``False``: send none)."""
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    if declared is not False:
        handler.send_header("Content-Length", str(len(body) if declared is None else declared))
    for name, value in headers:
        handler.send_header(name, value)
    handler.end_headers()  # the stdlib sends head and body apart
    handler.wfile.write(body)


def assert_retryable_unreachable(url, mentions=""):
    """Every attempt fails typed and retryable, on a connection of its
    own: a failed exchange never leaves its socket pooled."""
    client = ServiceClient(url, timeout=5.0, retries=1, backoff=0.01)
    with pytest.raises(RemoteServiceError) as excinfo:
        client.status()
    assert excinfo.value.code == wire.ErrorCode.UNREACHABLE
    assert mentions in str(excinfo.value)
    stats = client.stats_snapshot()
    assert stats["retries_used"] == 1
    assert stats["connections_opened"] == 2
    assert stats["reconnects"] == 0
    assert stats["requests_sent"] == 0


class TestForeignServers:
    def test_http11_keepalive_reuses_one_connection(self):
        with stdlib_fake(answer) as url:
            client = ServiceClient(url, timeout=5.0)
            for _ in range(3):
                assert client.status().iteration == 7
            assert client.connections_opened == 1
            client.close()

    def test_http10_close_delimited_body_is_read_to_eof(self):
        with stdlib_fake(lambda h: answer(h, declared=False), "HTTP/1.0") as url:
            client = ServiceClient(url, timeout=5.0)
            for _ in range(2):
                assert client.status().iteration == 7
            # Each socket was discarded with its response, not found dead.
            assert client.connections_opened == 2
            assert client.reconnects == 0

    def test_connection_close_is_honoured(self):
        with stdlib_fake(lambda h: answer(h, ("Connection", "close"))) as url:
            client = ServiceClient(url, timeout=5.0)
            for _ in range(2):
                assert client.status().iteration == 7
            assert client.connections_opened == 2
            assert client.reconnects == 0

    def test_interim_100_continue_is_skipped(self):
        def respond(handler):
            handler.send_response_only(100)
            handler.end_headers()
            answer(handler)

        with stdlib_fake(respond) as url:
            client = ServiceClient(url, timeout=5.0)
            for _ in range(2):
                assert client.status().iteration == 7
            assert client.connections_opened == 1
            client.close()

    def test_body_cut_midway_is_retryable_unreachable(self):
        def respond(handler):
            answer(handler, body=STATUS_BODY[:20], declared=len(STATUS_BODY))
            handler.close_connection = True

        with stdlib_fake(respond) as url:
            assert_retryable_unreachable(url, mentions="cut short")

    def test_chunked_answer_is_refused(self):
        def respond(handler):
            chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(STATUS_BODY), STATUS_BODY)
            answer(handler, ("Transfer-Encoding", "chunked"), body=chunk, declared=False)

        with stdlib_fake(respond) as url:
            assert_retryable_unreachable(url, mentions="Transfer-Encoding")

    @pytest.mark.parametrize("head, mentions", [
        (b"HTTP/1.1 two-hundred OK\r\nContent-Length: 0\r\n\r\n", "status line"),
        (b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n", "status line"),
        (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n", "line longer"),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", "headers"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
         "Content-Length"),
    ])
    def test_unparseable_head_is_retryable_unreachable(self, head, mentions):
        def respond(handler):
            handler.wfile.write(head)
            handler.close_connection = True

        with stdlib_fake(respond) as url:
            assert_retryable_unreachable(url, mentions=mentions)

    def test_timeout_is_retryable_unreachable(self):
        release = threading.Event()
        with stdlib_fake(lambda h: release.wait(timeout=10)) as url:
            client = ServiceClient(url, timeout=0.2)
            try:
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.status()
            finally:
                release.set()
            assert excinfo.value.code == wire.ErrorCode.UNREACHABLE
            assert "timed out" in str(excinfo.value)


# --------------------------------------------------------------------- #
# (c) segmentation and truncation                                        #
# --------------------------------------------------------------------- #


class Segments(io.RawIOBase):
    """A raw stream that hands out ``data`` cut at ``cuts``, one segment
    per read — what ``recv`` does to a message TCP split."""

    def __init__(self, data: bytes, cuts):
        edges = [0, *sorted(cuts), len(data)]
        self._segments = [data[a:b] for a, b in zip(edges, edges[1:]) if a < b]

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self._segments:
            return 0
        segment = self._segments[0][:len(buffer)]
        self._segments[0] = self._segments[0][len(segment):]
        if not self._segments[0]:
            self._segments.pop(0)
        buffer[:len(segment)] = segment
        return len(segment)


def reader(data: bytes, cuts=()):
    return io.BufferedReader(Segments(data, cuts))


header_values = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=20)
responses = st.tuples(
    st.integers(200, 599),
    st.dictionaries(st.sampled_from(["X-One", "X-Two", "Content-Type"]), header_values),
    st.binary(max_size=300),
)


class TestFramingProperties:
    @given(response=responses, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_segmentation_parses_the_same(self, response, data):
        status, headers, body = response
        message = http1.build(f"HTTP/1.1 {status} Whatever", headers.items(), body)
        cuts = data.draw(st.sets(st.integers(1, len(message) - 1), max_size=12))
        expected = {name.lower(): value for name, value in headers.items()}
        expected["content-length"] = str(len(body))
        assert http1.read_response(reader(message, cuts)) == (status, expected, body, True)

    @given(response=responses, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_raises_and_never_returns_short(self, response, data):
        status, headers, body = response
        message = http1.build(f"HTTP/1.1 {status} Whatever", headers.items(), body)
        kept = data.draw(st.integers(0, len(message) - 1))
        expected = http1.FramingError if kept else ConnectionResetError
        with pytest.raises(expected):
            http1.read_response(reader(message[:kept]))

    def test_two_messages_back_to_back_do_not_bleed(self):
        one = http1.build("HTTP/1.1 200 OK", [("X-N", "1")], b"first")
        two = http1.build("HTTP/1.0 404 Not Found", [], b"second!")
        stream = reader(one + two, cuts=range(1, len(one + two), 7))
        assert http1.read_response(stream)[::2] == (200, b"first")
        assert http1.read_response(stream) == (
            404, {"content-length": "7"}, b"second!", False)
        with pytest.raises(ConnectionResetError):
            http1.read_response(stream)

    def test_request_head_round_trips(self):
        message = http1.build("POST /v1/checkins?x=1 HTTP/1.1", [("Host", "h:1")], b"{}")
        stream = reader(message, cuts=range(1, len(message)))
        start, headers = http1.read_head(stream.readline)
        assert http1.parse_request_line(start, headers) == (
            "POST", "/v1/checkins?x=1", True)
        assert http1.read_body(stream, http1.body_length(headers)) == b"{}"

    @pytest.mark.parametrize("declared", ["-1", "five", "1e3", "0x10", "+4", "", "²", "4, 5"])
    def test_content_length_must_be_one_non_negative_integer(self, declared):
        with pytest.raises(http1.FramingError):
            http1.body_length({"content-length": declared})

    def test_content_length_absent_or_repeated_equal(self):
        assert http1.body_length({}) is None
        assert http1.body_length({"content-length": "12"}) == 12
        assert http1.body_length({"content-length": "12, 12"}) == 12


# --------------------------------------------------------------------- #
# (d) structure: sends per hop, and what the serve tier imports          #
# --------------------------------------------------------------------- #


def test_one_checkout_is_one_send_per_side_per_hop(host, monkeypatch):
    client = ServiceClient(host.url)
    request = CheckoutRequest(0, client.join(0), 0.0)
    client.checkout(request)  # every pooled connection on the path is open
    sends = []
    sendall = socket.socket.sendall

    def counting_sendall(sock, data, *flags):
        sends.append(threading.current_thread())
        return sendall(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    client.checkout(request)
    monkeypatch.undo()
    # client → host, or client → front end → worker: a request and a
    # response per hop, each in exactly one send.
    hops = 2 if isinstance(host, ShardFrontEnd) else 1
    assert sends.count(threading.current_thread()) == 1
    assert len(sends) == 2 * hops


def test_serve_cli_imports_no_stdlib_http_stack():
    probe = (
        "import sys, repro.serve.cli\n"
        "print([m for m in ('http.client', 'http.server', 'email.parser', 'ssl')"
        " if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=serve_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
