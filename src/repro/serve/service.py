"""``CrowdService`` — an HTTP host for a :class:`ServerCore`.

The transport-agnostic protocol core was designed so a real network
server could own it unchanged; this module is that server: the route
handlers of Algorithm 2 mounted on an
:class:`~repro.serve.host.HttpHost` (pure stdlib, one thread per
connection), with every core access serialized through a single lock —
:class:`ServerCore` is a plain state machine, so the lock *is* the
arrival order, exactly like the event queue's delivery order in
simulation.

Routes (all bodies are :mod:`repro.serve.wire` envelopes except
``/v1/metrics``, which serves Prometheus text or a plain JSON snapshot
document)::

    POST /v1/join       enroll a device, returns its token (optional)
    POST /v1/checkout   Server Routine 1 — current parameters
    POST /v1/checkins   batch-native check-in → ServerCore.handle_checkins
    GET  /v1/status     counters + stopping state (?parameters=1 for w)
    GET  /v1/metrics    obs registry scrape (?format=json for the doc)

Observability (:mod:`repro.obs`) is opt-in: pass a
:class:`~repro.obs.metrics.MetricsRegistry` and/or
:class:`~repro.obs.trace.TraceRecorder` and every request is counted
and latency-bucketed per endpoint, lock waits are measured, and the
check-in path is phase-traced (decode → lock_wait → core_apply →
checkpoint → encode).  Without them the same call sites hit shared
no-op singletons, and ``GET /v1/metrics`` still answers 200 with an
``enabled: false`` document.

Malformed, version-mismatched, unauthenticated, or stale (task already
stopped) requests are answered with 4xx ``error`` envelopes by the host;
no request, however garbled, takes the server down.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.server_core import ServerCore
from repro.serve import wire
from repro.serve.host import HttpHost, Request
from repro.utils.exceptions import AuthenticationError


class CrowdService(HttpHost):
    """Host one :class:`ServerCore` behind a loopback/LAN HTTP endpoint.

    Parameters
    ----------
    core:
        The protocol state machine to expose.  The service takes over
        all access to it; concurrent requests are serialized.
    host / port:
        Bind address.  ``port=0`` picks a free ephemeral port — read the
        chosen one from :attr:`port` / :attr:`url`.
    allow_join:
        Whether ``POST /v1/join`` enrolls new devices (the Web-portal
        join flow).  Disable for a closed deployment where the registry
        is provisioned out of band.
    checkpointer:
        Optional :class:`~repro.persist.checkpoint.Checkpointer`.  When
        set, the service commits **write-ahead**: the body of a check-in
        batch that advanced the core is appended to the log (``fsync``ed
        at the policy's cadence) while the core lock is still held and
        *before* the ack leaves the server.  With ``every_n_updates=1`` a
        crash or power cut can therefore only lose updates whose acks the
        clients never saw — which they retry, and the dedupe applies once.
        Joins commit and sync unconditionally (tokens must never be
        handed out and then forgotten).  A failing append or ``fsync``
        fails the request (500) rather than acking undurable state.
    shard_epoch:
        Incarnation epoch of this worker on a sharded tier (``None`` =
        unsharded).  Stamped into every check-in result and status body
        so a front end can refuse answers from a fenced zombie
        incarnation; the matching fence on the *durable* side is the
        checkpointer's store opened with the same epoch
        (:class:`~repro.persist.checkpoint.SnapshotStore`).

    Examples
    --------
    >>> from repro.core.config import ServerConfig
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.core.server_core import ServerCore
    >>> core = ServerCore(MulticlassLogisticRegression(2, 2),
    ...                   config=ServerConfig(max_iterations=10))
    >>> with CrowdService(core) as service:
    ...     service.url.startswith("http://127.0.0.1:")
    True
    """

    def __init__(
        self,
        core: ServerCore,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_join: bool = True,
        checkpointer=None,
        shard_epoch: Optional[int] = None,
        metrics=None,
        tracer=None,
    ):
        super().__init__(
            {
                ("POST", "/v1/join"): self._handle_join,
                ("POST", "/v1/checkout"): self._handle_checkout,
                ("POST", "/v1/checkins"): self._handle_checkins,
                ("GET", "/v1/status"): self._handle_status,
            },
            "service", host, port, metrics=metrics, tracer=tracer,
        )
        self._core = core
        self._allow_join = bool(allow_join)
        self._checkpointer = checkpointer
        self._shard_epoch = -1 if shard_epoch is None else int(shard_epoch)
        if metrics is not None:
            # The service owns all access to the core (and drives the
            # checkpointer), so it is the natural place to (re)bind
            # their instruments into the shared registry.
            core.attach_metrics(metrics)
            if checkpointer is not None:
                checkpointer.attach_metrics(metrics)
        self._m_lock_wait = self._metrics.histogram("service_lock_wait_seconds")
        self._m_lock_wait_last = self._metrics.gauge(
            "service_last_lock_wait_seconds"
        )
        self._lock = threading.Lock()
        # (server iteration, hex tail of its parameters): the bulk of
        # every check-out response, encoded once per iteration.
        self._encoded_parameters: Optional[tuple] = None

    @property
    def core(self) -> ServerCore:
        return self._core

    def checkpoint_now(self) -> Optional[str]:
        """Force a snapshot of the current core state (shutdown flush)."""
        if self._checkpointer is None:
            return None
        with self._lock:
            return self._checkpointer.checkpoint(self._core)

    # -- route handlers (hold the core lock) ---------------------------- #

    def _acquire_core_lock(self, trace):
        """Acquire the core lock, recording how long the caller waited."""
        wait_start = time.perf_counter()
        self._lock.acquire()
        waited = time.perf_counter() - wait_start
        self._m_lock_wait.observe(waited)
        self._m_lock_wait_last.set(waited)
        trace.add_phase("lock_wait", waited)

    def _handle_join(self, request: Request):
        trace = request.trace
        with trace.phase("decode"):
            device_id = wire.decode_join_request(request.body)
        if not self._allow_join:
            raise AuthenticationError("join is disabled on this service")
        self._acquire_core_lock(trace)
        try:
            token = self._core.register_device(device_id)
            last_seq = self._core.applied_checkin_seq(device_id)
            if self._checkpointer is not None:
                # Unconditional: a token handed out must survive a crash,
                # or the device's traffic is rejected after resume.
                with trace.phase("checkpoint"):
                    self._checkpointer.commit(
                        self._core, request.body, self._core.iteration, join=True
                    )
        finally:
            self._lock.release()
        with trace.phase("encode"):
            payload = wire.encode_join_response(device_id, token, last_seq)
        return 200, payload

    def _handle_checkout(self, request: Request):
        trace = request.trace
        with trace.phase("decode"):
            checkout = wire.decode_checkout_request(request.body)
        self._acquire_core_lock(trace)
        try:
            if self._core.stopped:
                raise wire.WireError(
                    wire.ErrorCode.STOPPED,
                    "task has stopped; no further check-outs",
                )
            response = self._core.handle_checkout(checkout)
            # Parameters only change when an update advances the
            # iteration, so the iteration key makes the cached tail
            # exactly as fresh as the response it came from.  Encoding
            # happens at most once per iteration (under the lock, so
            # concurrent checkouts of the same iteration share one
            # encode).
            cached = self._encoded_parameters
            if cached is None or cached[0] != response.server_iteration:
                cached = (response.server_iteration, wire.hex_tail(response.parameters))
                self._encoded_parameters = cached
        finally:
            self._lock.release()
        with trace.phase("encode"):
            payload = wire.encode_checkout_response(response, cached[1])
        return 200, payload

    def _handle_checkins(self, request: Request):
        trace = request.trace
        with trace.phase("decode"):
            messages = wire.decode_checkin_batch(request.body)
        self._acquire_core_lock(trace)
        try:
            if self._core.stopped:
                # Stale traffic: the whole batch arrived after the task
                # ended — single-message wire semantics (409), so remote
                # devices see the same typed rejection as local callers.
                raise wire.WireError(
                    wire.ErrorCode.STOPPED,
                    "task has stopped; no further check-ins",
                )
            iteration_before = self._core.iteration
            with trace.phase("core_apply"):
                acks = self._core.handle_checkins(messages)
                iteration = self._core.iteration
                stop = self._core.stopping_decision()
            if self._checkpointer is not None:
                # Write-ahead: logged before the ack leaves the server (a batch
                # that applied nothing logs nothing, unless a commit is owed).
                with trace.phase("checkpoint"):
                    self._checkpointer.commit(
                        self._core, request.body, iteration_before
                    )
        finally:
            self._lock.release()
        with trace.phase("encode"):
            payload = wire.encode_checkin_result(
                acks, iteration, stop, epoch=self._shard_epoch
            )
        return 200, payload

    def _handle_status(self, request: Request):
        include_parameters = request.flag("parameters")
        self._acquire_core_lock(request.trace)
        try:
            payload = wire.encode_status(
                iteration=self._core.iteration,
                stop=self._core.stopping_decision(),
                checkouts_served=self._core.checkouts_served,
                rejected_messages=self._core.rejected_messages,
                registered_devices=self._core.registry.num_registered,
                num_parameters=self._core.model.num_parameters,
                duplicates_suppressed=self._core.duplicates_suppressed,
                parameters=self._core.parameters if include_parameters else None,
                epoch=self._shard_epoch,
                **self._incarnation(),
            )
        finally:
            self._lock.release()
        return 200, payload

    # -- observability views -------------------------------------------- #

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry's snapshot document, with scrape-time gauges.

        Core counters are mirrored into gauges at scrape time (plain-int
        reads, no lock needed for monitoring) so a scrape sees protocol
        state without a separate ``/v1/status`` round trip.
        """
        registry = self._metrics
        registry.gauge("core_iteration").set(self._core.iteration)
        registry.gauge("core_checkouts_served").set(self._core.checkouts_served)
        registry.gauge("core_rejected_messages").set(self._core.rejected_messages)
        registry.gauge("core_duplicates_suppressed").set(
            self._core.duplicates_suppressed
        )
        return super().metrics_snapshot()
