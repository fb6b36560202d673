"""Ablation A3 — Remark 3: alternative server update rules under DP noise.

Compares plain projected SGD (Eq. 3), AdaGrad, and Polyak-averaged SGD as
the server optimizer while devices release ε = 10 Laplace-noised gradients.
Remark 3's claim: these swaps need no device-side change and adaptive rates
provide robustness to large noisy gradients.
"""

import numpy as np
import pytest

from benchmarks._harness import publish_table, run_once
from repro.core import Device, DeviceConfig, ServerConfig, ServerCore
from repro.core.protocol import CheckoutRequest
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import test_error as compute_test_error
from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, AdaGrad, AveragedSGD, InverseSqrtRate, L2BallProjection


def drive(server, model, parts, epsilon, seed, num_passes=3):
    """Run synchronous passes of device check-ins against `server`."""
    rng = np.random.default_rng(seed)
    config = DeviceConfig.default(batch_size=10, num_classes=10, epsilon=epsilon)
    devices = {}
    for index in range(len(parts)):
        token = server.register_device(index)
        devices[index] = (Device(index, model, config, token, rng), token)
    for _ in range(num_passes):
        for index, local in enumerate(parts):
            device, token = devices[index]
            for x, y in local.samples():
                if device.observe(x, y):
                    device.mark_checkout_requested()
                    response = server.handle_checkout(
                        CheckoutRequest(index, token, 0.0)
                    )
                    result = device.complete_checkout(
                        response.parameters, response.server_iteration
                    )
                    server.handle_checkin(result.message)


def run_ablation():
    train, test = make_mnist_like(num_train=6000, num_test=1500)
    epsilon = 10.0
    model = MulticlassLogisticRegression(50, 10, l2_regularization=1e-4)
    parts = iid_partition(train, 60, np.random.default_rng(0))
    projection = L2BallProjection(100.0)

    optimizers = {
        "SGD (Eq. 3)": lambda: SGD(
            model.init_parameters(), InverseSqrtRate(30.0), projection
        ),
        "AdaGrad": lambda: AdaGrad(
            model.init_parameters(), constant=0.35, projection=projection
        ),
        # Average only the settled tail: with ~1800 noisy updates total,
        # averaging the descent phase would drag the estimate backward.
        "Averaged SGD": lambda: AveragedSGD(
            model.init_parameters(), InverseSqrtRate(30.0), projection, burn_in=1200
        ),
    }
    rows = {}
    for name, make_optimizer in optimizers.items():
        optimizer = make_optimizer()
        server = ServerCore(model, optimizer, ServerConfig(max_iterations=10**9))
        drive(server, model, parts, epsilon, seed=1)
        params = (
            optimizer.averaged_parameters
            if isinstance(optimizer, AveragedSGD)
            else server.parameters
        )
        rows[name] = compute_test_error(model, params, test)
    return rows


def test_remark3_optimizer_swaps(benchmark):
    rows = run_once(benchmark, run_ablation)
    lines = [f"{name:<16} test error {error:.3f}" for name, error in rows.items()]
    publish_table("ablation_optimizers", "\n".join(lines),
                  {name: {"final_error": error}
                   for name, error in rows.items()})

    # Every update rule learns under DP noise (well below chance 0.9).
    for name, error in rows.items():
        assert error < 0.65, name

    # Averaging should not be (much) worse than the raw final iterate.
    assert rows["Averaged SGD"] <= rows["SGD (Eq. 3)"] + 0.1
