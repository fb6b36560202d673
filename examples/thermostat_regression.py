"""Crowd-learned thermostat preferences — the intro's regression scenario.

Section I motivates "learning optimal settings of room temperatures for
smart thermostats".  This example runs that workload through the full
Crowd-ML protocol with the :class:`~repro.models.RidgeRegression` model:
a fleet of thermostats observes (time-of-day, occupancy, outdoor
temperature, activity) context and the occupants' chosen temperature
offsets, and learns one shared preference predictor under per-sample
ε-differential privacy.

Usage::

    python examples/thermostat_regression.py
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import Device, DeviceConfig, ServerConfig, ServerCore
from repro.core.protocol import CheckoutRequest
from repro.data import THERMOSTAT_DIM, make_thermostat_split
from repro.models import RidgeRegression
from repro.optim import SGD, InverseSqrtRate, L2BallProjection
from repro.privacy import split_budget

NUM_THERMOSTATS = 40
EPSILON = 5.0
BATCH_SIZE = 10


def run(epsilon: float) -> float:
    """Train the crowd at one privacy level; return test RMSE."""
    (train_x, train_y), (test_x, test_y) = make_thermostat_split(
        num_train=4000, num_test=1000, seed=0
    )
    model = RidgeRegression(
        THERMOSTAT_DIM, l2_regularization=1e-4, residual_bound=2.0,
        error_tolerance=0.2,
    )
    server = ServerCore(
        model,
        optimizer=SGD(model.init_parameters(), InverseSqrtRate(5.0),
                      L2BallProjection(50.0)),
        config=ServerConfig(max_iterations=10**6),
    )
    budget = split_budget(epsilon, num_classes=1)
    config = DeviceConfig(
        batch_size=BATCH_SIZE, buffer_capacity=BATCH_SIZE * 10, budget=budget
    )

    per_device = len(train_x) // NUM_THERMOSTATS
    for d in range(NUM_THERMOSTATS):
        token = server.register_device(d)
        device = Device(d, model, config, token, np.random.default_rng(10 + d))
        lo, hi = d * per_device, (d + 1) * per_device
        for x, y in zip(train_x[lo:hi], train_y[lo:hi]):
            if device.observe(x, float(y)):
                device.mark_checkout_requested()
                response = server.handle_checkout(CheckoutRequest(d, token, 0.0))
                result = device.complete_checkout(
                    response.parameters, response.server_iteration
                )
                server.handle_checkin(result.message)

    predictions = model.predict(server.parameters, test_x)
    return float(np.sqrt(np.mean((predictions - test_y) ** 2)))


def main() -> None:
    print(f"Simulating {NUM_THERMOSTATS} thermostats, b = {BATCH_SIZE} ...\n")
    print(f"{'privacy':>14} {'test RMSE':>10}")
    baseline = None
    for epsilon in (math.inf, 10.0, EPSILON, 1.0):
        rmse = run(epsilon)
        if baseline is None:
            baseline = rmse
        label = "eps = inf" if math.isinf(epsilon) else f"eps = {epsilon:g}"
        print(f"{label:>14} {rmse:>10.4f}")
    print(
        "\nThe shared preference model trains across every home without a\n"
        "single raw (context, temperature) reading leaving a thermostat —\n"
        "the same device/server protocol as the classification tasks, with\n"
        "the squared loss and residual clipping supplying the sensitivity."
    )


if __name__ == "__main__":
    main()
