"""``HttpHost`` — the one HTTP front for the wire protocol.

Everything an HTTP server for :mod:`repro.serve.wire` needs that is not
protocol-specific lives here, once: the listener (one thread per
connection) and its keep-alive loop over :mod:`repro.serve.http1`, the
start/serve/stop/drain lifecycle, the capped body read, the exception →
typed ``error``-envelope mapping, the response writer, the request/error
counters with their per-endpoint metric series, and the
``GET /v1/metrics`` rendering.

A host is a subclass that hands :class:`HttpHost` a ``(method, path) →
handler`` table and extends :meth:`HttpHost.metrics_snapshot`;
:class:`~repro.serve.service.CrowdService` (one
:class:`~repro.core.server_core.ServerCore`) and
:class:`~repro.shard.frontend.ShardFrontEnd` (N workers) are the two.
Each handler takes a :class:`Request` and returns ``(status, payload)``
or raises; no request, however garbled, takes a host down:

* a typed :class:`~repro.serve.wire.WireError` is answered with its own
  code and status, an ``AuthenticationError`` as 401, any other
  ``ProtocolError`` as 400 ``malformed``;
* an unexpected exception is caught, counted, and answered as a 500
  ``internal`` envelope while the host keeps serving;
* requests refused before routing (unsupported method, unparseable
  request line or header block) get the same typed envelope and the
  same counters, under endpoint ``other``.

Two guarantees hold for every response.  It leaves in **one write**,
head and body together, on a ``TCP_NODELAY`` socket: split in two, the
body of any response under one MSS sits behind Nagle until the client's
delayed ACK (~44 ms per keep-alive request).  And it is **booked before
it is answered**: the counters, the per-endpoint series and the trace
record of request N are all visible by the time a client holds response
N, so ``<prefix>_request_seconds`` and a trace's ``duration_ms`` end at
"response encoded", not "response written".
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.metrics import NULL_REGISTRY, render_prometheus
from repro.obs.trace import NULL_TRACER
from repro.serve import http1, wire
from repro.utils.exceptions import AuthenticationError, ProtocolError

#: Requests with a larger declared body are refused outright (413).
MAX_BODY_BYTES = 64 * 1024 * 1024

_JSON = "application/json"

#: How often the serve loop looks for a stop request; ``stop()`` blocks
#: for at most this long (the stdlib's default is 0.5 s).
_STOP_POLL_SECONDS = 0.02


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # A crowd joins at once: the stdlib's backlog of 5 turns 64
    # simultaneous connects into resets and SYN retransmits.
    request_queue_size = 1024


class Request(NamedTuple):
    """What a route handler sees of one HTTP request."""

    #: The declared body, fully read (``b""`` when none was declared).
    body: bytes
    #: ``parse_qs`` of the query string.
    query: Dict[str, List[str]]
    #: The request's active trace (a shared no-op on an untraced host).
    trace: object

    def flag(self, name: str) -> bool:
        """Whether ``?name=...`` is present and not ``0``/``false``/empty."""
        return self.query.get(name, ["0"])[-1] not in ("", "0", "false")


class HttpHost:
    """Serve a route table over loopback/LAN HTTP.

    Parameters
    ----------
    routes:
        ``{(method, path): handler}``; ``handler(request)`` returns
        ``(status, payload)`` or ``(status, payload, content_type)``.
        ``GET /v1/metrics`` is mounted by the host itself.  The last
        path segment is the request's ``endpoint`` metric label (a fixed
        set, so label cardinality is bounded whatever clients request).
    prefix:
        Metric series prefix (``<prefix>_requests_total`` etc.).
    host / port:
        Bind address.  ``port=0`` picks a free ephemeral port — read the
        chosen one from :attr:`port` / :attr:`url`.
    metrics / tracer:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` and
        :class:`~repro.obs.trace.TraceRecorder`; without them the same
        call sites hit shared no-op singletons.
    """

    def __init__(
        self,
        routes: Mapping[Tuple[str, str], Callable[[Request], tuple]],
        prefix: str,
        host: str,
        port: int,
        metrics=None,
        tracer=None,
    ):
        self._routes = {**routes, ("GET", "/v1/metrics"): self._handle_metrics}
        self._labels = {
            path: path.rsplit("/", 1)[-1] for _, path in self._routes
        }
        self._metrics = registry = metrics if metrics is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._started_at = time.time()
        self._m_requests, self._m_errors, self._m_latency = {}, {}, {}
        for endpoint in (*self._labels.values(), "other"):
            self._m_requests[endpoint] = registry.counter(
                f"{prefix}_requests_total", endpoint=endpoint
            )
            self._m_errors[endpoint] = registry.counter(
                f"{prefix}_errors_total", endpoint=endpoint
            )
            self._m_latency[endpoint] = registry.histogram(
                f"{prefix}_request_seconds", endpoint=endpoint
            )
        self._m_inflight = registry.gauge(f"{prefix}_inflight_requests")
        self._m_uptime = registry.gauge(f"{prefix}_uptime_seconds")
        self._counter_lock = threading.Lock()
        self._idle = threading.Condition(self._counter_lock)
        self._inflight = 0
        self._thread: Optional[threading.Thread] = None
        self._thread_name = f"{prefix}-http"
        self._serving = False
        self.requests_served = 0
        #: error responses sent, keyed by wire error code.
        self.errors_returned: Dict[str, int] = {}
        #: ``(second, text)`` of the last ``Date`` header formatted.
        self._date = (0, "")
        owner = self

        class _Handler(socketserver.StreamRequestHandler):
            # Per-connection handler bound to the enclosing host.
            # TCP_NODELAY on every accepted socket: a response too large
            # for one segment must not wait on the client's ACK either.
            disable_nagle_algorithm = True

            def handle(self):
                owner._serve_connection(self.rfile, self.wfile)

        self._server = _Server((host, int(port)), _Handler)

    # -- lifecycle ------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def total_errors(self) -> int:
        return sum(self.errors_returned.values())

    def start(self):
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ProtocolError("host already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_STOP_POLL_SECONDS,),
            name=self._thread_name, daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro-serve`` entry point)."""
        try:
            self._serving = True
            self._server.serve_forever(_STOP_POLL_SECONDS)
        finally:
            # An exception (e.g. SIGINT/SIGTERM) may land anywhere in
            # this frame — including *before* the serve loop's own
            # shutdown handshake is armed.  Resetting here means a
            # subsequent stop() never blocks waiting for a loop exit
            # that already happened (or never started).
            self._serving = False

    def stop(self) -> None:
        """Shut the listener down and release the port (idempotent).

        Safe at any lifecycle point: before the serve loop ever ran it
        only closes the bound socket — ``shutdown()`` would block forever
        waiting for a loop exit that can never happen.
        """
        if self._serving:
            self._server.shutdown()
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no request is mid-dispatch; True if quiesced.

        Called after the listener stopped accepting: connections already
        inside a handler finish and get their responses before the
        process exits (the graceful-shutdown half of the durability
        story — the final snapshot must postdate every acked update).
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request plumbing ----------------------------------------------- #

    def _serve_connection(self, rfile, wfile) -> None:
        """One connection's keep-alive loop: a request per turn, each
        answered with exactly one response, until either side closes."""
        keep_alive = True
        while keep_alive:
            method, target, headers, refusal = "", "", {}, None
            try:
                start, headers = http1.read_head(rfile.readline)
                method, target, keep_alive = http1.parse_request_line(start, headers)
                if method not in ("GET", "POST"):
                    refusal = wire.WireError(
                        wire.ErrorCode.METHOD_NOT_ALLOWED,
                        f"unsupported method {method!r}",
                    )
            except OSError:
                return  # the peer closed (or reset) the connection between requests
            except http1.FramingError as error:
                refusal = error
            with self._idle:
                self._inflight += 1
            self._m_inflight.inc()
            try:
                keep_alive = self._respond(
                    rfile, wfile, method, target, headers, keep_alive, refusal
                )
            finally:
                self._m_inflight.dec()
                with self._idle:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.notify_all()

    def _respond(
        self, rfile, wfile, method, target, headers, keep_alive, refusal
    ) -> bool:
        code = None
        content_type = _JSON
        # A request refused before routing is booked under endpoint "other".
        path, _, query = ("" if refusal else target).partition("?")
        endpoint = self._labels.get(path, "other")
        trace = self._tracer.begin(f"{method} {path}")
        start = time.perf_counter()
        try:
            if refusal:
                raise refusal
            # Read before routing, whatever the route: a declared body
            # left on a kept-alive socket would be parsed as the next
            # request line.
            body = self._read_body(rfile, wfile, headers)
            route = self._routes.get((method, path))
            if route is None:
                if path in self._labels:
                    raise wire.WireError(
                        wire.ErrorCode.METHOD_NOT_ALLOWED,
                        f"{method} not supported on {path}",
                    )
                raise wire.WireError(wire.ErrorCode.NOT_FOUND, f"no route {path}")
            # Only the status and metrics scrapes ever carry a query.
            result = route(Request(body, parse_qs(query) if query else {}, trace))
            status, payload = result[0], result[1]
            if len(result) > 2:
                content_type = result[2]
        except wire.WireError as error:
            code = error.code
            status, payload = error.http_status, wire.encode_error(code, str(error))
        except AuthenticationError as error:
            code = wire.ErrorCode.AUTH_FAILED
            status, payload = 401, wire.encode_error(code, str(error))
        except ProtocolError as error:
            # Route handlers raise their typed rejections (stopped task,
            # unavailable shard) as WireErrors, so a plain ProtocolError
            # reaching here is a bad payload (or frame: ``FramingError``).
            code = wire.ErrorCode.MALFORMED
            status, payload = 400, wire.encode_error(code, str(error))
        except Exception as error:  # noqa: BLE001 - the host must survive
            code = wire.ErrorCode.INTERNAL
            status, payload = 500, wire.encode_error(
                code, f"{type(error).__name__}: {error}"
            )
        # A refused body (413, bad Content-Length) or a request whose
        # frame was given up on is still on the wire; closing after any
        # error keeps the stream in sync under one rule.
        keep_alive = keep_alive and code is None
        # Book, then answer: whoever holds response N — the next request
        # on the wire or an in-process reader — finds request N counted.
        elapsed = time.perf_counter() - start
        with self._counter_lock:
            self.requests_served += 1
            if code is not None:
                self.errors_returned[code] = self.errors_returned.get(code, 0) + 1
        self._m_requests[endpoint].inc()
        if code is not None:
            self._m_errors[endpoint].inc()
        self._m_latency[endpoint].observe(elapsed)
        trace.finish(status)
        self._send(wfile, status, payload, content_type, keep_alive)
        return keep_alive

    @staticmethod
    def _read_body(rfile, wfile, headers) -> bytes:
        length = http1.body_length(headers) or 0
        if length > MAX_BODY_BYTES:
            raise wire.WireError(
                wire.ErrorCode.PAYLOAD_TOO_LARGE,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit",
            )
        if headers.get("expect", "").lower() == "100-continue":
            # The client is holding the body back until told to go on.
            wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return http1.read_body(rfile, length)

    def _send(self, wfile, status: int, payload: str, content_type: str,
              keep_alive: bool) -> None:
        now = int(time.time())
        if self._date[0] != now:  # at most one format a second, not one a response
            # English names: nothing in a serving process sets LC_TIME.
            self._date = (now, time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(now)))
        headers = [("Date", self._date[1]), ("Content-Type", content_type)]
        if not keep_alive:
            # Tell a keep-alive client now, or it finds the socket
            # dead on its next request and pays a replay.
            headers.append(("Connection", "close"))
        try:
            # One write on the unbuffered wfile is one sendall(): head
            # and body share a segment whenever they fit in one.
            wfile.write(http1.build(
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", headers,
                payload.encode("utf-8"),
            ))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to answer

    # -- observability -------------------------------------------------- #

    def _handle_metrics(self, request: Request):
        snapshot = self.metrics_snapshot()
        if request.query.get("format", ["text"])[-1] == "json":
            return 200, json.dumps(snapshot, sort_keys=True), _JSON
        return 200, render_prometheus(snapshot), "text/plain; version=0.0.4"

    def metrics_snapshot(self) -> Dict[str, object]:
        """The document ``GET /v1/metrics`` serves: the registry's
        snapshot, uptime gauge refreshed.  Hosts extend it."""
        self._m_uptime.set(time.time() - self._started_at)
        return self._metrics.snapshot()

    def _incarnation(self) -> Dict[str, object]:
        """The ``/v1/status`` fields that tell a process from its
        replacement: a failover changes the pid and zeroes the uptime."""
        return {
            "uptime_seconds": time.time() - self._started_at,
            "pid": os.getpid(),
        }

    def stats_snapshot(self) -> Dict[str, object]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        with self._counter_lock:
            return {
                "requests_served": self.requests_served,
                "errors_returned": dict(self.errors_returned),
                "total_errors": sum(self.errors_returned.values()),
            }


__all__ = ["MAX_BODY_BYTES", "HttpHost", "Request"]
