"""What the benchmark measures, and which end-to-end number each layer moves.

``BENCHMARK.json`` at the repo root is the contract the driver reads:
workload names with their *why*, end-to-end metrics with unit, direction
and regression bound, per-layer metrics with unit and direction.  Its
schema has no room for the interaction map ("a faster ``serve.wire``
batch decode should move ``rounds_per_s`` on ``gateway_batch``"), so
that map lives here, keyed by the same names; ``test_smoke.py`` asserts
the two agree and that every ``moves`` target exists.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")  # the program under test
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: The one task every workload trains: multiclass logistic regression on
#: the paper's MNIST-after-PCA shape, Laplace sanitizer at eps = 10, the
#: server's default c/sqrt(t) schedule and radius-100 ball.
DIM, CLASSES, EPSILON = 50, 10, 10.0
LEARNING_RATE, PROJECTION_RADIUS = 1.0, 100.0


def load_contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


class Layer(NamedTuple):
    """One per-layer metric: the module it times, how, and the
    (end-to-end metric, workload) pairs it is expected to move."""

    layer: str
    how: str
    moves: Tuple[Tuple[str, str], ...]


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, workload) for workload in workloads)


_HTTP_P50 = _on("round_ms_p50", "http_round")
_GATEWAY_RPS = _on("rounds_per_s", "gateway_batch")
_FUSED_RPS = _on("rounds_per_s", "sim_fused")
_DELAYED_RPS = _on("rounds_per_s", "sim_delayed")
_DURABLE = _on("round_ms_p50", "durable_sharded") + _on("rounds_per_s", "durable_sharded")
_HTTP_BOTH = _HTTP_P50 + _on("rounds_per_s", "http_round")

#: name -> Layer.  ``micro`` rows are the in-process pass (one public
#: function timed alone on the benchmark's message shapes; identical in
#: every workload's traced run).  ``trace`` rows come from spans and
#: scrapes of the traced workload itself and read 0 on a workload whose
#: rounds never enter that layer.
LAYERS: Dict[str, Layer] = {
    # -- micro: model math --------------------------------------------- #
    "models.errors_and_gradient_us.b1": Layer(
        "models", "micro: MulticlassLogisticRegression.errors_and_gradient, 1 row", _FUSED_RPS),
    "models.errors_and_gradient_us.b5": Layer(
        "models", "micro: same, 5 rows", _HTTP_P50),
    "models.errors_and_gradient_us.b20": Layer(
        "models", "micro: same, 20 rows", _DELAYED_RPS),
    "core.sanitizer.sanitize_us": Layer(
        "core.sanitizer", "micro: CheckinSanitizer.sanitize, Laplace, eps=10",
        _FUSED_RPS + _GATEWAY_RPS),
    "core.device.observe_us": Layer(
        "core.device", "micro: Device.observe, one sample", _FUSED_RPS),
    "core.device.observe_batch_us.k20": Layer(
        "core.device", "micro: Device.observe_batch, 20 samples", _DELAYED_RPS),
    "core.device.complete_checkout_us.b1": Layer(
        "core.device", "micro: Device.complete_checkout (model + sanitizer + "
        "accountant + message build), 1 buffered sample", _FUSED_RPS),
    "core.device.complete_checkout_us.b5": Layer(
        "core.device", "micro: same, 5 buffered samples", _HTTP_P50 + _GATEWAY_RPS),
    "core.device.complete_checkout_us.b20": Layer(
        "core.device", "micro: same, 20 buffered samples", _DELAYED_RPS),
    "optim.step_us": Layer(
        "optim", "micro: paper_sgd(...).step, 500 parameters", _FUSED_RPS),
    # -- micro: server core -------------------------------------------- #
    "core.server_core.serve_round_us": Layer(
        "core.server_core", "micro: ServerCore.serve_round, one request, "
        "pre-built check-in", _FUSED_RPS),
    "core.server_core.handle_checkout_us": Layer(
        "core.server_core", "micro: ServerCore.handle_checkout", _HTTP_P50 + _DELAYED_RPS),
    "core.server_core.handle_checkins_us.n1": Layer(
        "core.server_core", "micro: ServerCore.handle_checkins, 1 message",
        _HTTP_P50 + _DELAYED_RPS),
    "core.server_core.handle_checkins_us.n64": Layer(
        "core.server_core", "micro: ServerCore.handle_checkins, 64 messages", _GATEWAY_RPS),
    "network.event_queue_us_per_event": Layer(
        "network", "micro: EventQueue.schedule + run, per event", _DELAYED_RPS),
    # -- micro: wire codec --------------------------------------------- #
    "serve.wire.encode_checkin_batch_us.n1": Layer(
        "serve.wire", "micro: encode_checkin_batch, 1 message", _HTTP_P50),
    "serve.wire.encode_checkin_batch_us.n64": Layer(
        "serve.wire", "micro: encode_checkin_batch, 64 messages", _GATEWAY_RPS),
    "serve.wire.decode_checkin_batch_us.n1": Layer(
        "serve.wire", "micro: decode_checkin_batch, 1 message", _HTTP_P50),
    "serve.wire.decode_checkin_batch_us.n64": Layer(
        "serve.wire", "micro: decode_checkin_batch, 64 messages", _GATEWAY_RPS),
    "serve.wire.encode_checkout_response_us": Layer(
        "serve.wire", "micro: encode_checkout_response, 500 parameters", _HTTP_P50),
    "serve.wire.decode_checkout_response_us": Layer(
        "serve.wire", "micro: decode_checkout_response", _HTTP_P50),
    "serve.wire.checkin_bytes.n1": Layer(
        "serve.wire", "micro: exact byte length of a 1-message check-in batch", _HTTP_P50),
    "serve.wire.checkout_bytes": Layer(
        "serve.wire", "micro: exact byte length of a check-out response", _HTTP_P50),
    # -- micro: persistence -------------------------------------------- #
    "persist.after_update_ms_p50.reg2048": Layer(
        "persist", "micro: Checkpointer.after_update on a core with 2048 "
        "registered devices (one shard's share of --register 4096)", _DURABLE),
    "persist.snapshot_bytes.reg2048": Layer(
        "persist", "micro: exact size of that snapshot file", _DURABLE),
    # -- trace: simulator ---------------------------------------------- #
    "simulation.events_per_sample": Layer(
        "simulation", "trace: simulator.events_fired / samples consumed (exact)",
        _FUSED_RPS + _DELAYED_RPS),
    "simulation.construct_s": Layer(
        "simulation", "trace: seconds in the CrowdSimulator constructor, median "
        "of the repetitions (raw wall clock)", _on("setup_s", "sim_fused", "sim_delayed")),
    "simulation.test_error": Layer(
        "simulation", "trace: final test error of one repetition (seeded; "
        "repeats exactly for a seed)", ()),
    # -- trace: HTTP client and service --------------------------------- #
    "serve.client.checkout_ms_p50": Layer(
        "serve.client", "trace: span around ServiceClient.checkout "
        "(gateway_batch: the EdgeGateway.checkout calls that went upstream)",
        _HTTP_P50),
    "serve.client.checkins_ms_p50": Layer(
        "serve.client", "trace: span around ServiceClient.checkins "
        "(gateway_batch: the EdgeGateway.add calls that flushed)", _HTTP_P50),
    "serve.service.checkout_ms_p50": Layer(
        "serve.service", "trace: scraped service_request_seconds{endpoint=checkout}",
        _HTTP_P50),
    "serve.service.checkins_ms_p50": Layer(
        "serve.service", "trace: scraped service_request_seconds{endpoint=checkins}",
        _HTTP_P50 + _GATEWAY_RPS),
    "serve.service.lock_wait_ms_p95": Layer(
        "serve.service", "trace: scraped service_lock_wait_seconds",
        _on("round_ms_p50", "http_round", "durable_sharded")),
    "serve.service.errors_total": Layer(
        "serve.service", "trace: scraped service_errors_total, all endpoints", ()),
    "serve.hop_residual_ms.checkout": Layer(
        "serve", "trace: client p50 - service p50 - client-side wire "
        "encode/decode; the stall detector", _HTTP_BOTH),
    "serve.hop_residual_ms.checkins": Layer(
        "serve", "trace: same for check-ins", _HTTP_BOTH),
    "serve.client.reuse_ratio": Layer(
        "serve.client", "trace: ServiceClient.stats_snapshot() requests per connection",
        _HTTP_P50),
    "serve.client.retries": Layer(
        "serve.client", "trace: ServiceClient.stats_snapshot() retries + reconnects",
        _HTTP_P50),
    "serve.client.round_ms_p90": Layer(
        "serve.client", "trace: run_round() call -> ack, 90th percentile over the "
        "untraced third of the traced run; an end-to-end reading kept here "
        "because the sims cannot hold it to a bound", ()),
    # -- trace: gateway ------------------------------------------------- #
    "gateway.flush_ms_p50": Layer(
        "gateway", "trace: the EdgeGateway.add span that emptied the pool", _GATEWAY_RPS),
    "gateway.mean_flush_size": Layer(
        "gateway", "trace: EdgeGateway.stats_snapshot() messages_flushed / flushes",
        _GATEWAY_RPS),
    "gateway.requests_per_round": Layer(
        "gateway", "trace: upstream requests / acked rounds (exact)", _GATEWAY_RPS),
    "gateway.custody_requeues": Layer(
        "gateway", "trace: EdgeGateway.stats_snapshot() custody_requeues", ()),
    # -- trace: persistence and sharding -------------------------------- #
    "persist.checkpoint_write_ms_p50": Layer(
        "persist", "trace: scraped checkpoint_write_seconds from each worker", _DURABLE),
    "shard.frontend.checkins_ms_mean": Layer(
        "shard", "trace: scraped frontend_request_seconds{endpoint=checkins} "
        "sum / count (the merged scrape only keeps bucket percentiles)", _DURABLE),
    "shard.hop_residual_ms": Layer(
        "shard", "trace: front-end mean - worker service_request_seconds mean, check-ins",
        _DURABLE),
    # -- the instrument itself ------------------------------------------ #
    "obs.overhead_share": Layer(
        "obs", "trace: 1 - traced rounds_per_s / untraced rounds_per_s, both "
        "measured inside the traced run", ()),
    "ledger.unexplained_share": Layer(
        "ledger", "trace: (round p50 - sum of named rows on the blocking path) "
        "/ round p50", ()),
    "trace.rounds": Layer(
        "ledger", "trace: rounds the spans and percentiles above were taken over", ()),
}
