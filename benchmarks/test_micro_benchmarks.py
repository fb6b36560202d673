"""Micro-benchmarks of the hot paths (Section IV-B1 computation load).

The paper argues the per-device work — one gradient per sample, one noise
vector per minibatch — is light enough for low-end devices, and the server
work (one SGD update per check-in) is minimal.  These benchmarks time the
actual operations so the claim can be checked against the numbers.
"""

import time

import numpy as np
import pytest

from benchmarks._harness import publish_table
from repro.core.config import DeviceConfig
from repro.core.device import Device
from repro.data import make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, InverseSqrtRate, L2BallProjection
from repro.privacy import LaplaceMechanism
from repro.network.events import EventQueue


@pytest.fixture(scope="module")
def batch():
    train, _ = make_mnist_like(num_train=64, num_test=10)
    return train.features[:20], train.labels[:20]


def test_device_gradient_computation(benchmark, batch):
    """One minibatch gradient (b=20, D=50, C=10) — the main device cost."""
    features, labels = batch
    model = MulticlassLogisticRegression(50, 10, l2_regularization=1e-4)
    w = np.random.default_rng(0).normal(size=model.num_parameters)
    benchmark(model.gradient, w, features, labels)


def test_device_noise_generation(benchmark):
    """One Laplace noise vector per minibatch (Eq. 10)."""
    mech = LaplaceMechanism(10.0, 0.2, np.random.default_rng(0))
    gradient = np.zeros(500)
    benchmark(mech.release, gradient)


def test_server_update(benchmark):
    """One projected SGD step (Eq. 3) — the only per-check-in server cost."""
    optimizer = SGD(
        np.zeros(500), InverseSqrtRate(30.0), L2BallProjection(100.0)
    )
    gradient = np.random.default_rng(0).normal(size=500)
    benchmark(optimizer.step, gradient)


def test_event_queue_throughput(benchmark):
    """Scheduler overhead per event (bounds achievable simulation scale)."""

    def run_thousand_events():
        queue = EventQueue()
        for i in range(1000):
            queue.schedule(float(i), lambda: None)
        queue.run()

    benchmark(run_thousand_events)


def test_model_prediction_latency(benchmark, batch):
    """Single-sample prediction — the on-device inference path."""
    features, _ = batch
    model = MulticlassLogisticRegression(50, 10)
    w = np.random.default_rng(0).normal(size=model.num_parameters)
    one = features[:1]
    benchmark(model.predict, w, one)


def test_device_round_first_vs_steady(batch):
    """A fresh device's first rounds against one hot device.

    The figure workloads run 1-60 rounds per device, so what a crowd pays
    is the *first* ``complete_checkout`` of each of M devices, not the
    steady state a single-device loop measures.  Rows: mean µs per call
    for rounds 1, 2 and 3 over 1 000 fresh devices (median of 5 crowds),
    and the median call of one device over 1 000 more rounds (d=50, C=10,
    Laplace at ε=10).  Record-only: no wall-clock assertion.
    """
    features, labels = batch
    model = MulticlassLogisticRegression(50, 10)
    weights = np.random.default_rng(0).normal(size=model.num_parameters)
    num_devices = 1000
    clock = time.perf_counter
    rows = {}
    for b in (1, 20):
        config = DeviceConfig.default(batch_size=b, num_classes=10, epsilon=10.0)
        x, y = features[:b], labels[:b]

        def timed_round(devices):
            for device in devices:
                device.observe_batch(x, y)
            start = clock()
            for device in devices:
                device.complete_checkout(weights, 0)
            return (clock() - start) / len(devices) * 1e6

        trials = []
        for _ in range(5):
            crowd = [
                Device(d, model, config, "t", np.random.default_rng(d))
                for d in range(num_devices)
            ]
            trials.append([timed_round(crowd) for _ in range(3)])
            assert all(device.checkins_completed == 3 for device in crowd)
        row = {
            f"round_{r + 1}_us": float(np.median([trial[r] for trial in trials]))
            for r in range(3)
        }
        hot = crowd[:1]
        row["hot_us"] = float(np.median([timed_round(hot) for _ in range(num_devices)]))
        rows[f"b={b}"] = row

    columns = ("round_1_us", "round_2_us", "round_3_us", "hot_us")
    lines = [f"{'M=1000':>8s} " + " ".join(f"{c:>11s}" for c in columns)]
    for name, row in rows.items():
        lines.append(f"{name:>8s} " + " ".join(f"{row[c]:11.1f}" for c in columns))
    publish_table("device_round", "\n".join(lines), rows)
