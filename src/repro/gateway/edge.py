"""Live-service edge gateway: batch device uploads over one HTTP pipe.

An :class:`EdgeGateway` fronts a crowd segment of
:class:`~repro.serve.remote.RemoteDevice`\\ s against a running
``repro-serve`` and collapses their per-round traffic into aggregate
requests:

* **uplink** — device check-ins pool in a
  :class:`~repro.gateway.aggregator.GatewayAggregator` and leave as
  single batched ``POST /v1/checkins`` requests;
* **downlink** — with ``share_checkouts=True`` (default) the gateway
  checks out *once* per flush epoch under its own enrollment and hands
  every device the same cached parameters until the next flush advances
  them, so a segment of D devices costs ``2`` HTTP requests per epoch
  instead of ``2·D``.

Sharing check-outs is exactly the staleness model of the paper: every
device in the epoch computes against the same w(t₀) and the server
applies the batch later.  A **sequential** pass-through gateway
(``flush_size=1``) degenerates to fetch → compute → flush → invalidate
per round, which is bit-identical to per-device HTTP traffic (the
benchmark's parity arm pins this against a local fused run).

``share_checkouts=False`` forwards each device's own checkout request
upstream unchanged — full per-device downlink traffic, batched uplink
only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.protocol import CheckinAck, CheckinMessage, CheckoutRequest, CheckoutResponse
from repro.gateway.aggregator import GatewayAggregator
from repro.serve import wire
from repro.serve.client import RemoteServiceError, ServiceClient

#: Default enrollment id for a gateway's shared check-outs — far outside
#: any realistic device-id range, so it never collides with a crowd
#: device enrolled on the same service.
GATEWAY_DEVICE_ID = 2**31 - 1


class EdgeGateway:
    """Pool a crowd segment's rounds into aggregate service requests.

    Parameters
    ----------
    client_or_url:
        The target service — a :class:`~repro.serve.client.ServiceClient`
        or a base URL string.
    flush_size:
        Flush upstream as soon as this many check-ins are pooled (see
        :class:`~repro.gateway.aggregator.GatewayAggregator`).
    share_checkouts:
        Serve every device's checkout from one cached upstream checkout
        per flush epoch (made under the gateway's own enrollment).
        ``False`` forwards each device's request upstream unchanged.
    device_id:
        The gateway's own enrollment id for shared check-outs (default
        :data:`GATEWAY_DEVICE_ID`; pick distinct ids for multiple
        gateways on one service).

    Every flush goes upstream whole, one request; in front of a sharded
    tier the :class:`~repro.shard.frontend.ShardFrontEnd` is the one place
    a mixed batch is split per owning shard.

    Single-threaded per instance, like :class:`RemoteDevice`: drive one
    gateway (and its devices) from one thread, or add external locking.
    """

    def __init__(
        self,
        client_or_url,
        *,
        flush_size: int = 32,
        share_checkouts: bool = True,
        device_id: int = GATEWAY_DEVICE_ID,
    ):
        if isinstance(client_or_url, ServiceClient):
            self._client = client_or_url
        else:
            self._client = ServiceClient(str(client_or_url))
        self._share = bool(share_checkouts)
        self._device_id = int(device_id)
        self._token: Optional[str] = None
        self._cached: Optional[CheckoutResponse] = None
        self._stopped = False
        self._last_result: Optional[wire.CheckinBatchResult] = None
        #: HTTP requests this gateway has made upstream (checkouts + batches).
        self.requests_made = 0
        self.aggregator = GatewayAggregator(self._post_batch, flush_size=flush_size)

    # -- state views ----------------------------------------------------- #

    @property
    def client(self) -> ServiceClient:
        return self._client

    @property
    def stopped(self) -> bool:
        """True once the server reported the task has ended."""
        return self._stopped

    @property
    def pending(self) -> int:
        """Check-ins buffered, not yet flushed upstream."""
        return self.aggregator.pending

    @property
    def stats(self):
        """The aggregator's lifetime counters."""
        return self.aggregator.stats

    @property
    def last_result(self) -> Optional[wire.CheckinBatchResult]:
        """The most recent batch result (server iteration + stop state)."""
        return self._last_result

    def stats_snapshot(self) -> Dict[str, Any]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom):
        the gateway's own counters merged with its aggregator's."""
        out = self.aggregator.stats_snapshot()
        out["requests_made"] = self.requests_made
        out["pending"] = self.aggregator.pending
        return out

    # -- downlink: shared check-outs -------------------------------------- #

    def checkout(self, request: CheckoutRequest) -> CheckoutResponse:
        """Serve one device's checkout, from cache when sharing.

        The returned response keeps the device's own ``device_id`` and
        ``issued_time``; with sharing enabled the parameter vector is
        the gateway's cached epoch checkout (devices treat checkout
        parameters as read-only, which :class:`~repro.core.device.Device`
        does).  Raises the same typed
        :class:`~repro.serve.client.RemoteServiceError` (409 ``stopped``)
        a direct client call would, so device-side Remark 1 handling is
        unchanged.
        """
        if self._stopped:
            raise RemoteServiceError(
                wire.ErrorCode.STOPPED,
                "task has stopped (observed by this gateway)",
                http_status=409,
            )
        if not self._share:
            return self._forward_checkout(request)
        if self._cached is None:
            if self._token is None:
                self._token = self._client.join(self._device_id)
                self.requests_made += 1
            upstream = CheckoutRequest(
                device_id=self._device_id,
                token=self._token,
                request_time=request.request_time,
            )
            self._cached = self._forward_checkout(upstream)
        base = self._cached
        return CheckoutResponse(
            device_id=request.device_id,
            parameters=base.parameters,
            server_iteration=base.server_iteration,
            issued_time=request.request_time,
        )

    def _forward_checkout(self, request: CheckoutRequest) -> CheckoutResponse:
        try:
            response = self._client.checkout(request)
        except RemoteServiceError as error:
            if error.code == wire.ErrorCode.STOPPED:
                self._stopped = True
            raise
        self.requests_made += 1
        return response

    # -- uplink: batched check-ins ---------------------------------------- #

    def add(self, message: CheckinMessage, on_ack=None):
        """Pool one check-in; flush upstream once ``flush_size`` are pooled.

        Same contract as :meth:`GatewayAggregator.add
        <repro.gateway.aggregator.GatewayAggregator.add>`.
        """
        return self.aggregator.add(message, on_ack=on_ack)

    def flush(self) -> Optional[List[Optional[CheckinAck]]]:
        """Force-flush the buffer upstream now."""
        return self.aggregator.flush()

    def _post_batch(self, messages: List[CheckinMessage]):
        """Aggregator upstream: ``POST /v1/checkins`` for the batch.

        A 409 (task stopped) rejects the batch as all-``None`` acks —
        mirroring :meth:`ServerCore.handle_checkins
        <repro.core.server_core.ServerCore.handle_checkins>` refusing
        every message after the stop.  Transient failures propagate; the
        aggregator keeps custody of the flush and the next flush retries
        it (the batched Remark 1; a replayed batch that already landed is
        deduped by the server's ledger).
        """
        try:
            result = self._client.checkins(messages)
        except RemoteServiceError as error:
            if error.code == wire.ErrorCode.STOPPED:
                self._stopped = True
                self._cached = None
                self.requests_made += 1
                return [None] * len(messages)
            raise
        self.requests_made += 1
        # The server just applied updates: the cached epoch checkout is
        # stale, so the next device checkout starts a new epoch.
        self._cached = None
        self._last_result = result
        if result.stopped:
            self._stopped = True
        return list(result.acks)
