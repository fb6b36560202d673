"""``ShardFrontEnd`` — one HTTP endpoint fronting N shard workers.

Clients speak the exact :mod:`repro.serve.wire` protocol they would
speak to a single :class:`~repro.serve.service.CrowdService`; the front
end routes each request to the worker owning the device:

* ``POST /v1/join`` / ``POST /v1/checkout`` — resolved by the envelope's
  ``device_id`` and forwarded **byte-for-byte** (the response comes back
  verbatim too, so single-shard traffic pays no re-encode).
* ``POST /v1/checkins`` — a batch whose messages all route to one shard
  is forwarded verbatim; a mixed batch (a gateway flushing several
  devices) is split into per-shard sub-batches and the acks merged back
  into the original message order.  Either way the answer is the one a
  single server holding every device would give: ``409 stopped`` when
  every involved shard had already stopped; otherwise an already-stopped
  shard's slots are ``null``, ``server_iteration`` sums the shards that
  answered, and the result reads ``stopped`` (with the first stopped
  shard's reason) only when this batch carried the last involved shard
  over its stop — ``running`` while any of them is live.
* ``GET /v1/status`` — aggregated counters across all shards
  (:func:`~repro.core.sharding.merge_status_counts`) plus a per-shard
  detail list; ``?shard=k`` passes one worker's status through verbatim
  (the only way to read parameters — per-shard vectors are the unit of
  bit-exactness, so ``?parameters=1`` without a shard is refused).

Routing reads the supervisor's endpoint table on **every** request, so a
failover repoints traffic immediately.  A shard with no healthy worker
answers 503 ``unavailable`` — retryable by
:class:`~repro.serve.client.ServiceClient` — and answers stamped with an
epoch older than the table's are refused the same way (a fenced zombie's
late reply must not reach a client as truth).

Splitting and forwarding reads envelope heads only (a split batch cuts
its gradients' hex undecoded, a mixed batch's acks are merged as the
plain tuples ``checkin_result_head`` reads) and knows no body layout:
:mod:`repro.serve.wire` is the one reader and writer, so the hot path
stays request-bound, not serialization-bound, and the front end process
never imports NumPy.

Exactly-once across a split: if forwarding sub-batch 2 fails after
sub-batch 1 was applied, the whole request errors and the client retries
the full batch — shard 1's dedupe ledger answers the replayed half with
its original acks, so nothing double-applies.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.sharding import ShardMergeError, merge_status_counts
from repro.core.stopping import StopDecision, StopReason
from repro.obs.metrics import label_snapshot, merge_snapshots
from repro.serve import wire
from repro.serve.client import RemoteServiceError, ServiceClient
from repro.serve.host import HttpHost, Request
from repro.shard.routing import ShardRouter

#: Upstream retries (timeout and backoff are ``ServiceClient``'s own
#: defaults): two fast ones ride out the instant of a worker restart
#: without surfacing a 503 for every blip.
_WORKER_RETRIES = 2


class ShardFrontEnd(HttpHost):
    """Route wire-protocol traffic across per-shard workers.

    Parameters
    ----------
    router:
        The :class:`~repro.shard.routing.ShardRouter` deciding device
        ownership (its shard count must match the ``--shard-count`` the
        workers were launched with).
    endpoints:
        Endpoint resolver — a
        :class:`~repro.shard.supervisor.ShardSupervisor` or
        :class:`~repro.shard.routing.StaticEndpoints` (anything with
        ``endpoints()``).
    host / port:
        Bind address of the front end itself (``port=0`` = ephemeral).
    """

    def __init__(
        self,
        router: ShardRouter,
        endpoints,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics=None,
    ):
        super().__init__(
            {
                ("POST", "/v1/join"): partial(
                    self._handle_routed, "join_request", "/v1/join"
                ),
                ("POST", "/v1/checkout"): partial(
                    self._handle_routed, "checkout_request", "/v1/checkout"
                ),
                ("POST", "/v1/checkins"): self._handle_checkins,
                ("GET", "/v1/status"): self._handle_status,
            },
            "frontend", host, port, metrics=metrics,
        )
        self._router = router
        self._resolver = endpoints
        registry = self._metrics
        self._m_shard_requests = {
            shard: registry.counter(
                "frontend_shard_requests_total", shard=str(shard)
            )
            for shard in range(router.num_shards)
        }
        self._m_split_batches = registry.counter("frontend_split_batches_total")
        self._m_stale_epoch = registry.counter(
            "frontend_stale_epoch_rejections_total"
        )
        self._m_scrape_failures = registry.counter(
            "frontend_metrics_scrape_failures_total"
        )
        self._clients: Dict[str, ServiceClient] = {}
        self._clients_lock = threading.Lock()
        #: mixed-shard check-in batches that were split.
        self.split_batches = 0
        #: worker answers refused for carrying a fenced (stale) epoch.
        self.stale_epoch_rejections = 0

    # -- upstream forwarding --------------------------------------------- #

    def _endpoint(self, shard: int) -> Tuple[str, int]:
        entry = self._resolver.endpoints().get(shard)
        if entry is None:
            raise wire.WireError(
                wire.ErrorCode.UNAVAILABLE,
                f"shard {shard} has no healthy worker (failover in progress); "
                f"retry",
            )
        return entry

    def _client_for(self, url: str) -> ServiceClient:
        with self._clients_lock:
            client = self._clients.get(url)
            if client is None:
                # A new URL means a failover repointed a shard: forget the
                # clients (and their pooled sockets) of addresses that
                # left the endpoint table.
                live = {entry[0] for entry in self._resolver.endpoints().values()}
                for stale in self._clients.keys() - live:
                    del self._clients[stale]
                client = ServiceClient(url, retries=_WORKER_RETRIES)
                self._clients[url] = client
            return client

    def _forward(self, shard: int, method: str, path: str,
                 body: Optional[bytes]) -> bytes:
        url, _ = self._endpoint(shard)
        self._m_shard_requests[shard].inc()
        try:
            return self._client_for(url).call_raw(method, path, body)
        except RemoteServiceError as error:
            if error.transient:
                # The worker is mid-crash/restart: answer retryable, the
                # supervisor will have repointed by the client's replay.
                raise wire.WireError(
                    wire.ErrorCode.UNAVAILABLE,
                    f"shard {shard} worker unavailable: {error}",
                )
            # Typed 4xx answers pass through with their own code/status.
            raise wire.WireError(error.code, str(error))

    def _check_epoch(self, shard: int, answered: int) -> None:
        """Refuse an answer stamped with an epoch the fence has passed.

        The table is re-read *after* the response arrived: a request
        that raced a failover may have reached the fenced zombie, whose
        answer must not surface as truth.  The refusal is retryable —
        the client's replay resolves the *current* endpoint, and the
        dedupe ledger keeps a replayed check-in exactly-once.
        """
        entry = self._resolver.endpoints().get(shard)
        expected = entry[1] if entry is not None else -1
        if 0 <= answered < expected:
            with self._counter_lock:
                self.stale_epoch_rejections += 1
            self._m_stale_epoch.inc()
            raise wire.WireError(
                wire.ErrorCode.UNAVAILABLE,
                f"shard {shard} answered from fenced epoch {answered} "
                f"(current epoch {expected}); retry",
            )

    # -- route handlers -------------------------------------------------- #

    def _handle_routed(self, kind: str, path: str, request: Request):
        """join/checkout: single-device requests forwarded verbatim."""
        _, body = wire.parse_envelope(request.body, kind)
        shard = self._router.shard_of(wire.device_id_of(body, kind))
        return 200, self._forward(shard, "POST", path, request.body).decode("utf-8")

    def _handle_checkins(self, request: Request):
        raw = request.body
        messages, tails = wire.checkin_batch_entries(raw)
        groups = self._router.split(messages)
        verbatim = len(groups) == 1  # the request and its answer travel as-is
        if not verbatim:
            with self._counter_lock:
                self.split_batches += 1
            self._m_split_batches.inc()
        results: Dict[int, Optional[wire.CheckinBatchResult]] = {}
        refusal: Optional[wire.WireError] = None
        for shard in sorted(groups):
            entries = groups[shard]
            body = raw if verbatim else wire.encode_checkin_entries(
                [item for _, item in entries], [tails[index] for index, _ in entries]
            ).encode("utf-8")
            try:
                answer = self._forward(shard, "POST", "/v1/checkins", body)
            except wire.WireError as error:
                if error.code != wire.ErrorCode.STOPPED:
                    raise
                # This shard's task had already ended: its slots stay
                # unacked, like ServerCore refusing messages after the stop.
                refusal = refusal or error
                results[shard] = None
                continue
            if verbatim:
                epoch = wire.answer_epoch(answer)  # parsed once, no acks built
            else:
                results[shard] = wire.checkin_result_head(answer)
                epoch = results[shard].epoch
            self._check_epoch(shard, epoch)
        if refusal is not None and all(r is None for r in results.values()):
            # Every involved shard had already stopped: the 409 that one
            # CrowdService holding all of these devices would answer.
            raise refusal
        if verbatim:
            return 200, answer.decode("utf-8")
        return 200, merge_checkin_results(groups, results, len(messages))

    def _handle_status(self, request: Request):
        include = request.flag("parameters")
        shard_values = request.query.get("shard")
        if shard_values:
            try:
                shard = int(shard_values[-1])
            except ValueError:
                raise wire.WireError(
                    wire.ErrorCode.MALFORMED, f"bad shard index {shard_values[-1]!r}"
                )
            if not 0 <= shard < self._router.num_shards:
                raise wire.WireError(
                    wire.ErrorCode.NOT_FOUND,
                    f"no shard {shard} (tier runs {self._router.num_shards})",
                )
            path = "/v1/status" + ("?parameters=1" if include else "")
            answer = self._forward(shard, "GET", path, None)
            self._check_epoch(shard, wire.answer_epoch(answer))
            return 200, answer.decode("utf-8")
        if include:
            raise wire.WireError(
                wire.ErrorCode.MALFORMED,
                "parameters are per-shard state; use ?shard=<k>&parameters=1",
            )
        return 200, self._aggregate_status()

    def _aggregate_status(self) -> str:
        counts: List[Dict[str, Any]] = []
        rows: List[Dict[str, Any]] = []
        for shard in range(self._router.num_shards):
            url, epoch = self._endpoint(shard)
            try:
                status = self._client_for(url).status()
            except RemoteServiceError as error:
                raise wire.WireError(
                    wire.ErrorCode.UNAVAILABLE,
                    f"shard {shard} status probe failed: {error}",
                )
            counts.append(vars(status))
            row: Dict[str, Any] = {
                "shard": shard,
                "url": url,
                "epoch": status.epoch if status.epoch >= 0 else epoch,
                "iteration": status.iteration,
                "stopped": status.stopped,
            }
            # Incarnation identity (PR 9): a failover changes the pid
            # and zeroes the uptime, so operators can tell replacements
            # apart even when the shard kept its port.
            if status.uptime_seconds is not None:
                row["uptime_seconds"] = status.uptime_seconds
            if status.pid is not None:
                row["pid"] = status.pid
            rows.append(row)
        try:
            merged = merge_status_counts(counts)
        except ShardMergeError as error:
            raise wire.WireError(wire.ErrorCode.INTERNAL, str(error))
        stop = StopDecision(
            merged.pop("stopped"), StopReason(merged.pop("stop_reason"))
        )
        return wire.encode_status(
            stop=stop, shards=rows, **merged, **self._incarnation()
        )

    # -- observability ---------------------------------------------------- #

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Aggregate scrape: every shard's registry plus the front end's.

        Each worker's ``/v1/metrics?format=json`` document is tagged
        with its shard index (:func:`~repro.obs.metrics.label_snapshot`)
        and merged — counters add, histograms add bucket-wise — so one
        scrape of the front end answers both per-shard and tier-wide
        questions.  An unreachable worker is skipped and counted
        (``frontend_metrics_scrape_failures_total``); the scrape itself
        always succeeds.
        """
        snapshots = [super().metrics_snapshot()]
        table = self._resolver.endpoints()
        for shard in sorted(table):
            url, _ = table[shard]
            try:
                scraped = self._client_for(url).metrics_snapshot()
            except Exception:  # noqa: BLE001 - a scrape never fails the tier
                self._m_scrape_failures.inc()
                continue
            if not scraped.get("enabled", False):
                continue
            snapshots.append(label_snapshot(scraped, shard=str(shard)))
        merged = merge_snapshots(snapshots)
        merged["enabled"] = bool(self._metrics.enabled) or len(snapshots) > 1
        return merged

    def stats_snapshot(self) -> Dict[str, Any]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        snapshot = super().stats_snapshot()
        with self._counter_lock:
            snapshot["split_batches"] = self.split_batches
            snapshot["stale_epoch_rejections"] = self.stale_epoch_rejections
        return snapshot


def merge_checkin_results(
    groups: Dict[int, List[Tuple[int, Any]]],
    results: Dict[int, Optional[wire.CheckinBatchResult]],
    total: int,
) -> str:
    """The ``checkin_result`` one server holding every device would give
    a batch split into ``groups``.

    ``results[shard]`` is that shard's answer as
    :func:`~repro.serve.wire.checkin_result_head` reads it, or ``None``
    for a shard that refused ``409 stopped`` (its slots stay ``null``);
    at least one shard answered.
    """
    answered = [result for result in results.values() if result is not None]
    acks = {
        shard: [None] * len(groups[shard]) if result is None else result.acks
        for shard, result in results.items()
    }
    # A refusing shard had stopped before the batch, so the batch
    # itself crossed the last stop iff every answer reads stopped.
    stops = [result.stop_decision for result in answered if result.stopped]
    return wire.encode_checkin_result(
        ShardRouter.merge(groups, acks, total),
        sum(result.server_iteration for result in answered),
        stops[0] if len(stops) == len(answered) else StopDecision.running(),
    )


__all__ = ["ShardFrontEnd", "merge_checkin_results"]
