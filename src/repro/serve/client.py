"""HTTP client for a remote :class:`~repro.serve.service.CrowdService`.

:class:`ServiceClient` speaks the :mod:`repro.serve.wire` envelopes over
pooled keep-alive sockets framed by :mod:`repro.serve.http1` (as the
host's are; one ``sendall`` a request) and converts ``error`` envelopes back into
typed exceptions, so callers handle a remote rejection exactly like a
local :class:`~repro.core.server_core.ServerCore` raise:
:class:`RemoteAuthenticationError` for bad tokens,
:class:`RemoteServiceError` with :attr:`~RemoteServiceError.code` for
everything else.

Connection discipline
---------------------

Each thread keeps one persistent connection to the endpoint (the server
speaks HTTP/1.1 keep-alive), so a training run costs ~1 TCP handshake
per thread instead of one per request; the
:attr:`~ServiceClient.requests_sent` / :attr:`~ServiceClient.connections_opened`
counters make the reuse ratio observable (the serve-throughput benchmark
records it).  A pooled socket can go stale between requests — the server
restarted, an idle timeout fired, a proxy hung up.  Sending on a stale
*reused* socket fails instantly and deterministically, so the client
transparently reconnects and replays that request once; this is **not**
counted as a retry (no state reached the server).

Retries
-------

With ``retries > 0`` the client additionally retries *transient*
failures — connection refused/reset on a fresh socket, timeouts, a
response cut short or framed ambiguously, and 5xx ``internal`` answers —
with exponential backoff plus jitter.  4xx typed errors (auth, malformed,
stopped, version mismatch) never retry: the server answered, the answer
is the answer.  Retrying a request whose
*response* was lost can re-submit an already-applied check-in; that is
safe if and only if messages carry ``checkin_seq`` (the server's dedupe
ledger answers the replay with the original ack) — which is exactly what
:class:`~repro.serve.remote.RemoteDevice` and
:class:`~repro.serve.remote.RemoteServerCore` do.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, Optional, Sequence, Tuple
from urllib.parse import urlparse

from repro.serve import http1, wire
from repro.utils.exceptions import AuthenticationError, ProtocolError

if TYPE_CHECKING:  # the sharded front end forwards bytes without NumPy
    from repro.core.protocol import CheckinMessage, CheckoutRequest, CheckoutResponse

#: Errors that mean "the pooled socket died between requests" — eligible
#: for the transparent reconnect-and-replay (``http1`` raises the common
#: FIN-between-requests case, an empty read, as a reset too).
_STALE_SOCKET_ERRORS = (ConnectionResetError, BrokenPipeError)
#: Everything else the transport can raise mid-exchange — as transient as
#: a reset.  ``FramingError`` covers a body cut short: the server died
#: while writing it (neither a stale socket nor an ``OSError``).
_TRANSPORT_ERRORS = (OSError, http1.FramingError)
#: Uniform multiplicative jitter on each retry sleep (up to +25 %),
#: decorrelating a thundering herd of retriers.  No caller ever set it.
_JITTER = 0.25


class RemoteServiceError(ProtocolError):
    """A request the remote service rejected (or could not be reached).

    Attributes
    ----------
    code:
        The wire :class:`~repro.serve.wire.ErrorCode` the server sent
        (``"unreachable"`` when no HTTP response arrived at all).
    http_status:
        The HTTP status of the response, ``None`` when unreachable.
    """

    def __init__(self, code: str, message: str, http_status: Optional[int] = None):
        super().__init__(message)
        self.code = code
        self.http_status = http_status

    @property
    def transient(self) -> bool:
        """Worth another attempt: no answer arrived, or a 5xx did.  Typed
        4xx answers are final."""
        return self.code == wire.ErrorCode.UNREACHABLE or (
            self.http_status is not None and self.http_status >= 500
        )


class RemoteAuthenticationError(RemoteServiceError, AuthenticationError):
    """The remote service refused the device's credentials."""


def _raise_for_error(payload: bytes, http_status: int) -> None:
    """Convert an ``error`` envelope into the matching typed exception."""
    try:
        error = wire.decode_error(payload)
    except wire.WireError:
        raise RemoteServiceError(
            wire.ErrorCode.MALFORMED,
            f"server answered HTTP {http_status} with an unparseable body",
            http_status,
        )
    if error.code == wire.ErrorCode.AUTH_FAILED:
        raise RemoteAuthenticationError(error.code, str(error), http_status)
    raise RemoteServiceError(error.code, str(error), http_status)


class ServiceClient:
    """Pooled, retrying JSON-over-HTTP client for one service endpoint.

    Thread-safe: each thread gets its own pooled connection, so any
    number of device threads may share one client.

    Parameters
    ----------
    base_url:
        e.g. ``http://127.0.0.1:8900`` (trailing slashes are stripped).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts for *transient* failures (0 = fail fast, the
        historical behaviour).  See the module docstring for what
        retries — and what makes retried check-ins idempotent.
    backoff / backoff_max:
        First retry sleeps ``backoff`` seconds (plus up to 25 % jitter),
        doubling per attempt up to ``backoff_max``.
    retry_rng:
        Source of the jitter draws: a :class:`random.Random`, an int
        seed, or ``None`` (default) for an unseeded generator.  Chaos
        campaigns seed it so a test's backoff schedule — and therefore
        its interleaving against injected faults — is deterministic.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        retry_rng=None,
    ):
        self._base_url = str(base_url).rstrip("/")
        parsed = urlparse(self._base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ProtocolError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._headers = (("Host", parsed.netloc), ("Content-Type", "application/json"))
        self._timeout = float(timeout)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._backoff_max = float(backoff_max)
        if retry_rng is None:
            self._rng = random.Random()
        elif isinstance(retry_rng, random.Random):
            self._rng = retry_rng
        else:
            self._rng = random.Random(retry_rng)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self.requests_sent = 0
        self.connections_opened = 0
        self.reconnects = 0
        self.retries_used = 0

    @property
    def reuse_ratio(self) -> float:
        """Requests per connection — ≫1 means keep-alive is working."""
        if self.connections_opened == 0:
            return 0.0
        return self.requests_sent / self.connections_opened

    # -- connection pool (one per thread) ------------------------------- #

    def _connection(self) -> Tuple[socket.socket, BinaryIO]:
        """This thread's pooled ``(socket, reader)``, connected on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            with self._counter_lock:
                self.connections_opened += 1
            sock = socket.create_connection((self._host, self._port), self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = (sock, sock.makefile("rb"))
        return conn

    def close(self) -> None:
        """Close the calling thread's pooled connection (if any)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            sock, reader = conn
            try:
                reader.close()
                sock.close()
            except OSError:
                pass

    # -- request plumbing ----------------------------------------------- #

    def _roundtrip(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        sock, reader = self._connection()
        # Head and body in one segment, as the host answers.
        sock.sendall(http1.build(f"{method} {path} HTTP/1.1", self._headers, body or b""))
        status, _, data, keep_alive = http1.read_response(reader)
        if not keep_alive:
            self.close()
        with self._counter_lock:
            self.requests_sent += 1
        return status, data

    def _call_once(self, method: str, path: str, body: Optional[bytes]) -> bytes:
        reused = getattr(self._local, "conn", None) is not None
        try:
            try:
                status, data = self._roundtrip(method, path, body)
            except _STALE_SOCKET_ERRORS:
                if not reused:
                    # A fresh socket that dies mid-exchange is a real
                    # transient failure, not keep-alive staleness.
                    raise
                # The pooled socket went stale between requests; nothing
                # reached the server on this attempt.  Replay once on a
                # fresh connection, transparently.
                self.close()
                with self._counter_lock:
                    self.reconnects += 1
                status, data = self._roundtrip(method, path, body)
        except _TRANSPORT_ERRORS as error:
            self.close()
            raise RemoteServiceError(
                wire.ErrorCode.UNREACHABLE,
                f"cannot reach {self._base_url}: {error}",
            )
        if status != 200:
            _raise_for_error(data, status)
        return data

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[str] = None,
        raw_body: Optional[bytes] = None,
    ) -> bytes:
        body = raw_body if payload is None else payload.encode("utf-8")
        delay = self._backoff
        for attempt in range(self._retries + 1):
            try:
                return self._call_once(method, path, body)
            except RemoteServiceError as error:
                if attempt >= self._retries or not error.transient:
                    raise
            with self._counter_lock:
                self.retries_used += 1
            time.sleep(delay * (1.0 + _JITTER * self._rng.random()))
            delay = min(delay * 2.0, self._backoff_max)
        raise AssertionError("unreachable")  # pragma: no cover

    def call_raw(self, method: str, path: str, payload: Optional[bytes] = None) -> bytes:
        """One request with the full pooling/reconnect/retry discipline,
        exchanging **raw bytes** — no envelope encode or decode.

        This is the forwarding seam for proxies that relay
        already-encoded envelopes verbatim (the sharded front end): the
        upstream's 200 body comes back byte-identical, and a non-200
        raises the same typed errors the high-level API raises.
        """
        return self._call(method, path, raw_body=payload)

    # -- service API ---------------------------------------------------- #

    def join(self, device_id: int) -> str:
        """Enroll ``device_id`` with the remote registry; returns its token."""
        token, _ = self.join_info(device_id)
        return token

    def join_info(self, device_id: int) -> Tuple[str, int]:
        """Enroll and return ``(token, last_checkin_seq)``.

        ``last_checkin_seq`` is the highest sequence number the server
        has already applied for this device (``-1`` for a new device) —
        a retrying client resumes its numbering after it, so rejoining
        a resumed server never collides with the dedupe ledger.
        """
        raw = self._call("POST", "/v1/join", wire.encode_join_request(device_id))
        _, token, last_seq = wire.decode_join_response(raw)
        return token, last_seq

    def checkout(self, request: CheckoutRequest) -> CheckoutResponse:
        """Server Routine 1 over HTTP: fetch the current parameters."""
        raw = self._call("POST", "/v1/checkout", wire.encode_checkout_request(request))
        return wire.decode_checkout_response(raw)

    def checkins(self, messages: Sequence[CheckinMessage]) -> wire.CheckinBatchResult:
        """Upload a batch of check-ins; returns acks + server stop state."""
        raw = self._call("POST", "/v1/checkins", wire.encode_checkin_batch(messages))
        result = wire.decode_checkin_result(raw)
        if len(result.acks) != len(messages):
            # Callers zip acks to messages: a short answer would silently
            # leave devices without one.
            raise RemoteServiceError(
                wire.ErrorCode.MALFORMED,
                f"{len(result.acks)} acks for {len(messages)} check-ins", 200,
            )
        return result

    def status(self, include_parameters: bool = False) -> wire.ServiceStatus:
        """Fetch the server's counters (and optionally the full w)."""
        path = "/v1/status"
        if include_parameters:
            path += "?parameters=1"
        return wire.decode_status(self._call("GET", path))

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Scrape the remote ``GET /v1/metrics?format=json`` document."""
        raw = self._call("GET", "/v1/metrics?format=json")
        return json.loads(raw.decode("utf-8"))

    def stats_snapshot(self) -> Dict[str, Any]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        with self._counter_lock:
            requests = self.requests_sent
            connections = self.connections_opened
            reconnects = self.reconnects
            retries = self.retries_used
        return {
            "requests_sent": requests,
            "connections_opened": connections,
            "reconnects": reconnects,
            "retries_used": retries,
            "reuse_ratio": requests / connections if connections else 0.0,
        }
