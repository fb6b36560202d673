"""The in-process pass: each layer's public function timed alone.

Every function is called on the benchmark's message shapes (logistic
regression d=50, C=10, Laplace sanitizer at eps=10; b in {1, 5, 20};
batches of 1 and 64 check-ins) and reported as the median of
individually timed calls.  Microsecond-scale functions get 2000 calls,
the millisecond-scale ones (64-message batches, snapshots) fewer, so
the whole pass stays within a few seconds; the counts are in ``CALLS``.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.device import Device
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.core.sanitizer import CheckinSanitizer
from repro.core.server_core import ServerCore
from repro.data import make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network.events import EventQueue
from repro.optim import paper_sgd
from repro.persist.checkpoint import Checkpointer, CheckpointPolicy, SnapshotStore
from repro.serve import wire

from catalog import CLASSES, DIM, EPSILON, LEARNING_RATE, PROJECTION_RADIUS

CALLS = {"fast": 2000, "batch64": 300, "snapshot": 100, "event_batches": 50}
REGISTERED = 2048


def median_us(fn: Callable[[], object], calls: int,
              before: Optional[Callable[[], object]] = None) -> float:
    """Median microseconds of ``calls`` individually timed ``fn()`` calls;
    ``before`` (untimed) re-arms state ahead of each one."""
    clock = time.perf_counter
    samples: List[float] = []
    for _ in range(calls):
        if before is not None:
            before()
        start = clock()
        fn()
        samples.append(clock() - start)
    return statistics.median(samples) * 1e6


def new_core(model) -> ServerCore:
    """A ``ServerCore`` built the way ``repro-serve`` builds it."""
    return ServerCore(
        model,
        paper_sgd(model.init_parameters(),
                  learning_rate_constant=LEARNING_RATE,
                  projection_radius=PROJECTION_RADIUS),
        ServerConfig(max_iterations=10**9),
    )


def new_device(device_id: int, model, batch_size: int, token: str, seed: int) -> Device:
    return Device(
        device_id, model,
        DeviceConfig.default(batch_size=batch_size, num_classes=CLASSES,
                             epsilon=EPSILON),
        token, np.random.default_rng(seed),
    )


def run(seed: int, scratch_dir: str, scale: float = 1.0) -> Dict[str, float]:
    """All ``micro`` rows of ``catalog.LAYERS``; ``scale`` < 1 shrinks the
    call counts (smoke mode)."""
    calls = {key: max(int(count * scale), 20) for key, count in CALLS.items()}
    fast = calls["fast"]
    model = MulticlassLogisticRegression(DIM, CLASSES)
    train, _ = make_mnist_like(num_train=256, num_test=10, seed=seed)
    features, labels = train.features, train.labels
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=model.num_parameters)
    out: Dict[str, float] = {}

    # -- model math and device ------------------------------------------ #
    for b in (1, 5, 20):
        x, y = features[:b], labels[:b]
        out[f"models.errors_and_gradient_us.b{b}"] = median_us(
            lambda: model.errors_and_gradient(weights, x, y, validate=False), fast)

    config = DeviceConfig.default(batch_size=5, num_classes=CLASSES, epsilon=EPSILON)
    sanitizer = CheckinSanitizer(model, config.budget, np.random.default_rng(seed))
    gradient = rng.normal(size=model.num_parameters)
    label_counts = np.bincount(labels[:5], minlength=CLASSES).astype(np.int64)
    out["core.sanitizer.sanitize_us"] = median_us(
        lambda: sanitizer.sanitize(gradient, 1, label_counts, 5), fast)

    core = new_core(model)
    tokens = [core.register_device(d) for d in range(64)]
    device = new_device(0, model, 5, tokens[0], seed)
    rows = itertools.cycle(range(256))

    def observe_one():
        row = next(rows)
        device.observe(features[row], labels[row])

    out["core.device.observe_us"] = median_us(
        observe_one, fast,
        before=lambda: device.wants_checkout and device.complete_checkout(weights, 0))

    batch_device = new_device(1, model, 20, tokens[1], seed + 1)
    out["core.device.observe_batch_us.k20"] = median_us(
        lambda: batch_device.observe_batch(features[:20], labels[:20]), fast,
        before=lambda: batch_device.buffer_size
        and batch_device.complete_checkout(weights, 0))
    batch_device.complete_checkout(weights, 0)

    for b in (1, 5, 20):
        dev = new_device(2, model, b, tokens[2], seed + 2)
        out[f"core.device.complete_checkout_us.b{b}"] = median_us(
            lambda: dev.complete_checkout(weights, 0), fast,
            before=lambda: dev.observe_batch(features[:b], labels[:b]))

    optimizer = paper_sgd(model.init_parameters(),
                          learning_rate_constant=LEARNING_RATE,
                          projection_radius=PROJECTION_RADIUS)
    out["optim.step_us"] = median_us(lambda: optimizer.step(gradient), fast)

    # -- server core ----------------------------------------------------- #
    messages: List[CheckinMessage] = []
    for d in range(64):
        dev = new_device(d, model, 5, tokens[d], seed + 10 + d)
        dev.observe_batch(features[d:d + 5], labels[d:d + 5])
        messages.append(dev.complete_checkout(weights, 0).message)
    one = messages[:1]
    request = CheckoutRequest(0, tokens[0], 0.0)
    out["core.server_core.handle_checkout_us"] = median_us(
        lambda: core.handle_checkout(request), fast)
    out["core.server_core.handle_checkins_us.n1"] = median_us(
        lambda: core.handle_checkins(one), fast)
    out["core.server_core.handle_checkins_us.n64"] = median_us(
        lambda: core.handle_checkins(messages), calls["batch64"])
    out["core.server_core.serve_round_us"] = median_us(
        lambda: core.serve_round([request], lambda response: one[0]), fast)

    def thousand_events():
        queue = EventQueue()
        for index in range(1000):
            queue.schedule(float(index), _nothing)
        queue.run()

    out["network.event_queue_us_per_event"] = median_us(
        thousand_events, calls["event_batches"]) / 1000.0

    # -- wire codec ------------------------------------------------------ #
    for n, count in ((1, fast), (64, calls["batch64"])):
        batch = messages[:n]
        encoded = wire.encode_checkin_batch(batch)
        out[f"serve.wire.encode_checkin_batch_us.n{n}"] = median_us(
            lambda: wire.encode_checkin_batch(batch), count)
        out[f"serve.wire.decode_checkin_batch_us.n{n}"] = median_us(
            lambda: wire.decode_checkin_batch(encoded), count)
        if n == 1:
            out["serve.wire.checkin_bytes.n1"] = float(len(encoded.encode("utf-8")))
    response = core.handle_checkout(request)
    encoded_response = wire.encode_checkout_response(response)
    out["serve.wire.encode_checkout_response_us"] = median_us(
        lambda: wire.encode_checkout_response(response), fast)
    out["serve.wire.decode_checkout_response_us"] = median_us(
        lambda: wire.decode_checkout_response(encoded_response), fast)
    out["serve.wire.checkout_bytes"] = float(len(encoded_response.encode("utf-8")))

    # -- persistence ----------------------------------------------------- #
    big = new_core(model)
    token = [big.register_device(d) for d in range(REGISTERED)][0]
    message = CheckinMessage(
        device_id=0, token=token, gradient=gradient, num_samples=5,
        noisy_error_count=1, noisy_label_counts=label_counts,
        checkout_iteration=0,
    )
    checkpointer = Checkpointer(
        SnapshotStore(os.path.join(scratch_dir, "micro-state")),
        CheckpointPolicy(every_n_updates=1),
    )
    paths: List[Optional[str]] = []
    out["persist.after_update_ms_p50.reg2048"] = median_us(
        lambda: paths.append(checkpointer.after_update(big)), calls["snapshot"],
        before=lambda: big.handle_checkins([message])) / 1e3
    out["persist.snapshot_bytes.reg2048"] = float(os.path.getsize(paths[-1]))
    return out


def _nothing() -> None:
    return None
