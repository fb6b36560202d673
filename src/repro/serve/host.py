"""``HttpHost`` — the one HTTP front for the wire protocol.

Everything an HTTP server for :mod:`repro.serve.wire` needs that is not
protocol-specific lives here, once: the listener and its single
:class:`~http.server.BaseHTTPRequestHandler` subclass (one thread per
connection), the start/serve/stop/drain lifecycle, the capped body read,
the exception → typed ``error``-envelope mapping, the response writer,
the request/error counters with their per-endpoint metric series, and
the ``GET /v1/metrics`` rendering.

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
* requests the stdlib refuses before routing (unsupported method,
  unparseable request line) get the same typed envelope and the same
  counters, under endpoint ``other``.

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
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import NULL_REGISTRY, render_prometheus
from repro.obs.trace import NULL_TRACER
from repro.serve import wire
from repro.utils.exceptions import AuthenticationError, ProtocolError

#: Requests with a larger declared body are refused outright (413).
MAX_BODY_BYTES = 64 * 1024 * 1024

_JSON = "application/json"

#: How often the serve loop looks for a stop request; ``stop()`` blocks
#: for at most this long (the stdlib's default is 0.5 s).
_STOP_POLL_SECONDS = 0.02


class _Server(ThreadingHTTPServer):
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
        owner = self

        class _Handler(BaseHTTPRequestHandler):
            # Per-request handler bound to the enclosing host.
            protocol_version = "HTTP/1.1"
            # TCP_NODELAY on every accepted socket: a response too large
            # for one segment must not wait on the client's ACK either.
            disable_nagle_algorithm = True

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass  # keep request logs out of stdout; counters cover it

            def do_POST(self):
                owner._dispatch(self, "POST")

            def do_GET(self):
                owner._dispatch(self, "GET")

            def send_error(self, code, message=None, explain=None):
                # The stdlib's own refusals (raised before do_GET/do_POST
                # is reached) would otherwise answer text/html and skip
                # every counter.
                owner._dispatch(self, self.command, refusal=wire.WireError(
                    wire.ErrorCode.METHOD_NOT_ALLOWED if code == 501
                    else wire.ErrorCode.MALFORMED,
                    message or f"request refused ({code})",
                ))

        self._http = _Server((host, int(port)), _Handler)

    # -- lifecycle ------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

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
            target=self._http.serve_forever, args=(_STOP_POLL_SECONDS,),
            name=self._thread_name, daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro-serve`` entry point)."""
        try:
            self._serving = True
            self._http.serve_forever(_STOP_POLL_SECONDS)
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
            self._http.shutdown()
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

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

    def _dispatch(self, handler, method, refusal=None) -> None:
        """Answer one request; every exit path sends exactly one response."""
        with self._idle:
            self._inflight += 1
        self._m_inflight.inc()
        try:
            self._respond(handler, method, refusal)
        finally:
            self._m_inflight.dec()
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _respond(self, handler, method, refusal) -> None:
        code = None
        content_type = _JSON
        # A request the stdlib refused may have no parsed path at all.
        parsed = urlparse("" if refusal else handler.path)
        endpoint = self._labels.get(parsed.path, "other")
        trace = self._tracer.begin(f"{method} {parsed.path}")
        start = time.perf_counter()
        try:
            if refusal:
                raise refusal
            # Read before routing, whatever the route: a declared body
            # left on a kept-alive socket would be parsed as the next
            # request line.
            body = self._read_body(handler)
            route = self._routes.get((method, parsed.path))
            if route is None:
                if parsed.path in self._labels:
                    raise wire.WireError(
                        wire.ErrorCode.METHOD_NOT_ALLOWED,
                        f"{method} not supported on {parsed.path}",
                    )
                raise wire.WireError(
                    wire.ErrorCode.NOT_FOUND, f"no route {parsed.path}"
                )
            result = route(Request(body, parse_qs(parsed.query), trace))
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
            # reaching here is a bad payload.
            code = wire.ErrorCode.MALFORMED
            status, payload = 400, wire.encode_error(code, str(error))
        except Exception as error:  # noqa: BLE001 - the host must survive
            code = wire.ErrorCode.INTERNAL
            status, payload = 500, wire.encode_error(
                code, f"{type(error).__name__}: {error}"
            )
        if code is not None:
            # A refused body (413, bad Content-Length) or a request the
            # stdlib gave up on is still on the wire; closing after any
            # error keeps the stream in sync under one rule.
            handler.close_connection = True
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
        self._send(handler, status, payload, content_type)

    @staticmethod
    def _read_body(handler) -> bytes:
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise wire.WireError(wire.ErrorCode.MALFORMED, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise wire.WireError(
                wire.ErrorCode.PAYLOAD_TOO_LARGE,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit",
            )
        return handler.rfile.read(length)

    @staticmethod
    def _send(handler, status: int, payload: str, content_type: str) -> None:
        body = payload.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {handler.responses.get(status, ('',))[0]}\r\n"
            f"Server: {handler.version_string()}\r\n"
            f"Date: {handler.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if handler.close_connection:
            # Tell a keep-alive client now, or it finds the socket
            # dead on its next request and pays a replay.
            head += "Connection: close\r\n"
        try:
            # One write on the unbuffered wfile is one sendall(): head
            # and body share a segment whenever they fit in one.
            handler.wfile.write(head.encode("latin-1") + b"\r\n" + body)
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
