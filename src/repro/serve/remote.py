"""The remote deployment path: drive real devices against a live server.

Three pieces run the fused round-trip style (see
:mod:`repro.network.transport`) with the server in another process:

* :class:`HttpTransport` — a handle on the
  :class:`~repro.serve.client.ServiceClient` that carries the Fig. 2
  legs over HTTP; a round trip completes inside the calls.
* :class:`RemoteServerCore` — the fused-round proxy: the part of
  :class:`~repro.core.server_core.ServerCore` a fused run touches
  (``register_device`` / ``serve_round`` / ``iteration`` /
  ``parameters``) over a :class:`~repro.serve.client.ServiceClient`.
  This is what lets :class:`~repro.simulation.simulator.CrowdSimulator`
  run **unchanged** against a live service:
  ``SimulationConfig(transport="http", server_url=...)`` swaps the core
  out from under it and nothing else moves.
* :class:`RemoteDevice` — a standalone client runtime pairing one
  :class:`~repro.core.device.Device` (Algorithm 1, untouched) with a
  service client; real deployments (and the concurrent smoke tests)
  drive many of these from independent threads.

Parity: a sequential run through this path is **bit-identical** to an
in-process fused run of the same spec — floats round-trip
exactly through the JSON wire format and the server applies the same
updates in the same order.  With concurrent clients the arrival order
at the server is scheduling-dependent, so only aggregate invariants
(iterations == accepted check-ins, zero server errors) are guaranteed;
see README "Serving" for the full caveat list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.device import Device
from repro.core.protocol import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.core.server_core import RoundOutcome, fused_rounds
from repro.core.stopping import StopDecision, StopReason
from repro.models.base import Model
from repro.serve.client import RemoteServiceError, ServiceClient
from repro.serve import wire
from repro.utils.exceptions import ConfigurationError, ProtocolError

if TYPE_CHECKING:
    from repro.gateway.edge import EdgeGateway


class HttpTransport:
    """A handle on the client whose round trips reach a live ``CrowdService``.

    The caller blocks for the whole checkout→compute→check-in chain, so
    nothing interleaves within one client's round trip (the server may
    interleave *other clients'* updates — exactly the asynchrony of a
    real deployment).
    """

    def __init__(self, client_or_url):
        if isinstance(client_or_url, ServiceClient):
            self._client = client_or_url
        else:
            self._client = ServiceClient(str(client_or_url))

    @property
    def client(self) -> ServiceClient:
        return self._client


class RemoteDevice:
    """One live device: Algorithm 1 locally, Fig. 2 legs over HTTP.

    Wraps an ordinary :class:`~repro.core.device.Device` — sampling,
    buffering, gradients, and sanitization are exactly the in-process
    code — and runs its check-out/check-in round against the client's
    remote service.  Thread-safe across *instances* (one per device);
    a single instance must be driven from one thread.

    With a ``gateway`` (an :class:`~repro.gateway.edge.EdgeGateway`
    fronting the same service), the device's traffic routes through the
    edge tier instead: check-outs come from the gateway's shared epoch
    cache and check-ins pool in its aggregator, leaving as batched
    uploads.  Without one, every round falls back to **one message per
    round trip** — a ``POST /v1/checkout`` plus a single-message
    ``POST /v1/checkins`` per check-in, the pre-gateway behaviour (and
    the reason the per-device HTTP path is bounded by request latency;
    see the serve-throughput benchmark).
    """

    def __init__(
        self,
        device: Device,
        client: ServiceClient,
        gateway: Optional["EdgeGateway"] = None,
        first_checkin_seq: int = 0,
    ):
        self.device = device
        self.client = client
        self.gateway = gateway
        self._stopped = False
        self._pending_checkin: Optional[CheckinMessage] = None
        self._last_gateway_ack: Optional[CheckinAck] = None
        self.rounds_completed = 0
        if first_checkin_seq < 0:
            raise ConfigurationError(
                f"first_checkin_seq must be >= 0, got {first_checkin_seq}"
            )
        # Every check-in this device produces is stamped with the next
        # sequence number (Remark 1 idempotency): a retry — whether from
        # _pending_checkin custody here or an EdgeGateway's buffer —
        # re-sends the *same* stamped message, so a server that already
        # applied it answers with the original ack instead of a second
        # update.
        self._next_checkin_seq = int(first_checkin_seq)

    @classmethod
    def join(
        cls,
        transport: HttpTransport,
        device_id: int,
        model,
        config,
        rng: np.random.Generator,
        gateway: Optional["EdgeGateway"] = None,
    ) -> "RemoteDevice":
        """Enroll with the remote registry and build the device runtime.

        The join response carries the server's last applied sequence
        number for this device (``-1`` for a fresh enrollment), and
        numbering resumes after it — so re-joining a server that
        restored from a snapshot cannot reuse sequence numbers its
        dedupe ledger would swallow.
        """
        client = transport.client
        token, last_seq = client.join_info(device_id)
        return cls(
            Device(device_id, model, config, token, rng),
            client,
            gateway,
            first_checkin_seq=last_seq + 1,
        )

    @property
    def stopped(self) -> bool:
        """True once the server reported the task has ended."""
        return self._stopped

    def observe(self, features: np.ndarray, label) -> bool:
        """Routine 1; returns True when a check-out is due."""
        return self.device.observe(features, label)

    def run_round(self, now: float = 0.0) -> Optional[CheckinAck]:
        """One full Fig. 2 round trip, if the buffer warrants one.

        Returns the server's ack, or ``None`` when no check-out was due,
        the check-in was rejected, or the task has stopped (check
        :attr:`stopped` to distinguish).  Remark 1 semantics for both
        legs: a lost/rejected check-out leaves the buffer intact for a
        later retry, and a check-in lost to a transient transport
        failure is *kept* (the buffer was already consumed computing
        it) and re-uploaded at the next call before any new round.

        Gateway routing: with a configured :attr:`gateway` the check-in
        joins the gateway's pool instead of being POSTed — the return
        value is this message's ack when the add happened to trigger the
        flush, ``None`` while it is merely buffered (the ack arrives
        through the pool's flush and is counted in
        :attr:`rounds_completed` then).  Retry custody also moves to the
        gateway: a failed batch stays buffered *there*, so
        ``_pending_checkin`` is never set on this path.  Without a
        gateway the fallback is one message per round, as above.
        """
        device = self.device
        gateway = self.gateway
        if not self._stopped and gateway is not None and gateway.stopped:
            self._stopped = True
        if self._stopped:
            return None
        if self._pending_checkin is not None:
            # Re-upload a check-in stranded by an earlier transport
            # failure before generating any new one — server update
            # order per device stays the device's compute order.
            ack = self._upload(self._pending_checkin)
            if self._stopped or not device.wants_checkout:
                return ack
        if not device.wants_checkout:
            return None
        device.mark_checkout_requested()
        request = CheckoutRequest(
            device_id=device.device_id, token=device.token, request_time=float(now)
        )
        try:
            if gateway is not None:
                response = gateway.checkout(request)
            else:
                response = self.client.checkout(request)
        except RemoteServiceError as error:
            device.on_checkout_failed()
            if error.code == wire.ErrorCode.STOPPED:
                self._stopped = True
                return None
            raise
        result = device.complete_checkout(
            response.parameters, response.server_iteration
        )
        message = replace(result.message, checkin_seq=self._next_checkin_seq)
        self._next_checkin_seq += 1
        if gateway is not None:
            self._last_gateway_ack = None
            gateway.add(message, on_ack=self._on_gateway_ack)
            if gateway.stopped:
                self._stopped = True
            return self._last_gateway_ack
        return self._upload(message)

    def _on_gateway_ack(self, ack: Optional[CheckinAck]) -> None:
        """Receive this device's ack when its gateway batch flushes."""
        self._last_gateway_ack = ack
        if ack is not None:
            self.rounds_completed += 1

    def _upload(self, message: CheckinMessage) -> Optional[CheckinAck]:
        """POST one check-in; on transient failure keep it for retry."""
        self._pending_checkin = message
        try:
            outcome = self.client.checkins([message])
        except RemoteServiceError as error:
            if error.code == wire.ErrorCode.STOPPED:
                # The task ended while the message was in flight: the
                # contribution is moot, not lost — drop it.
                self._pending_checkin = None
                self._stopped = True
                return None
            # Transient (unreachable, 5xx): the message stays pending
            # and the next run_round retries it.  Re-raise so the
            # caller sees the failure.
            raise
        self._pending_checkin = None
        if outcome.stopped:
            self._stopped = True
        ack = outcome.acks[0]
        if ack is not None:
            self.rounds_completed += 1
        return ack


class RemoteServerCore:
    """Client-side fused-round proxy for a live ``CrowdService``.

    ``transport="http"`` is fused-only, so the simulator reaches the
    server through :meth:`serve_round` and nothing else; rejections come
    back as the core's non-raising ``None`` slots.  ``iteration``
    reflects the latest server state this client has *seen* — exact for
    a single sequential client, a lower bound under concurrency.

    Every check-in leaving this proxy is stamped with a per-device
    ``checkin_seq`` (numbering seeded from the join response), exactly
    as :class:`RemoteDevice` stamps its own, making re-submissions
    idempotent on the server.  This is what makes a *retrying*
    :class:`ServiceClient` safe: a replayed check-in whose original
    response was lost is answered from the server's dedupe ledger
    instead of applied twice.
    """

    def __init__(self, client: ServiceClient):
        self._client = client
        self._next_seqs: dict = {}
        status = client.status()
        if status.protocol_version != wire.PROTOCOL_VERSION:
            raise ConfigurationError(
                f"server speaks protocol {status.protocol_version}, "
                f"client speaks {wire.PROTOCOL_VERSION}"
            )
        self._num_parameters = status.num_parameters
        self._iteration = status.iteration
        self._stop = status.stop_decision

    def validate_model(self, model: Model) -> None:
        """Fail fast when the local task definition cannot match the server's."""
        if model.num_parameters != self._num_parameters:
            raise ConfigurationError(
                f"local model has {model.num_parameters} parameters but the "
                f"server task has {self._num_parameters}; point server_url at "
                f"a service hosting the same model"
            )

    # -- state views (as of the last exchange) -------------------------- #

    @property
    def iteration(self) -> int:
        """t as of the most recent server response seen by this client."""
        return self._iteration

    @property
    def parameters(self) -> np.ndarray:
        """Fetch the current w from the server (one status round trip)."""
        status = self._client.status(include_parameters=True)
        self._observe(status.iteration, status.stop_decision)
        return status.parameters

    def _observe(self, iteration: int, stop: StopDecision) -> None:
        if iteration > self._iteration:
            self._iteration = iteration
        if stop.stopped:
            self._stop = stop

    # -- protocol endpoints --------------------------------------------- #

    def register_device(self, device_id: int) -> str:
        """Enroll a device through ``POST /v1/join``; returns its token."""
        token, last_seq = self._client.join_info(device_id)
        self._next_seqs[int(device_id)] = last_seq + 1
        return token

    def _tag(self, message: CheckinMessage) -> CheckinMessage:
        """Stamp the next per-device sequence number."""
        device_id = int(message.device_id)
        seq = self._next_seqs.get(device_id, 0)
        self._next_seqs[device_id] = seq + 1
        return replace(message, checkin_seq=seq)

    def serve_round(
        self,
        requests: Sequence[CheckoutRequest],
        complete: Callable[..., Optional[CheckinMessage]],
        complete_args: tuple = (),
    ) -> RoundOutcome:
        """Fig. 2 rounds against the live server, one request at a time.

        :meth:`ServerCore.serve_round`'s loop over this client's gates:
        rejected or stale requests yield ``None`` without raising, each
        accepted check-in is applied before the next checkout is served
        (by the remote core, in request order for this client).
        """
        def tagged(response: CheckoutResponse, *args):
            message = complete(response, *args)
            return None if message is None else self._tag(message)

        slots = fused_rounds(
            requests, tagged, complete_args, self._admit_checkout, self._admit_checkin
        )
        return RoundOutcome(*slots, self._stop)

    def _refusal(self, error: RemoteServiceError) -> RemoteServiceError:
        """The server's typed refusal (stopped, or failed authentication),
        unraised as the gates hand it back; any other failure raises."""
        if error.code == wire.ErrorCode.STOPPED:
            self._stop = StopDecision(True, self._refresh_stop_reason())
        elif error.code != wire.ErrorCode.AUTH_FAILED:
            raise error
        return error

    def _admit_checkout(self, request: CheckoutRequest):
        if self._stop.stopped:
            return ProtocolError("task has stopped; no further check-outs")
        try:
            response = self._client.checkout(request)
        except RemoteServiceError as error:
            return self._refusal(error)
        self._observe(response.server_iteration, StopDecision.running())
        return response

    def _admit_checkin(self, message: CheckinMessage):
        try:
            result = self._client.checkins([message])
        except RemoteServiceError as error:
            return self._refusal(error)
        self._observe(result.server_iteration, result.stop_decision)
        return result.acks[0]

    def _refresh_stop_reason(self) -> StopReason:
        """One status poll to learn *why* the server stopped."""
        try:
            return StopReason(self._client.status().stop_reason)
        except (RemoteServiceError, ValueError):
            return StopReason.MAX_ITERATIONS
