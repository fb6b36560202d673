"""Integration tests of the framework's extension points: alternative
models (SVM, ridge), optimizers (AdaGrad — Remark 3), non-i.i.d. data,
and outage resilience."""

import numpy as np
import pytest

from repro.core import Device, DeviceConfig, ServerConfig, ServerCore
from repro.core.protocol import CheckoutRequest
from repro.data import (
    Dataset,
    dirichlet_partition,
    iid_partition,
    make_mnist_like,
)
from repro.models import (
    MulticlassLinearSVM,
    MulticlassLogisticRegression,
    RidgeRegression,
)
from repro.network import BernoulliOutage
from repro.optim import AdaGrad, L2BallProjection
from repro.simulation import CrowdSimulator, SimulationConfig, run_crowd_trials


@pytest.fixture(scope="module")
def data():
    return make_mnist_like(num_train=2000, num_test=600, seed=0)


class TestAlternativeModels:
    def test_svm_crowd_learning(self, data):
        """The framework is model-agnostic: hinge loss plugs straight in."""
        train, test = data
        config = SimulationConfig(
            num_devices=20, num_passes=3, learning_rate_constant=30.0,
        )
        report = run_crowd_trials(
            lambda: MulticlassLinearSVM(50, 10, l2_regularization=1e-4),
            train, test, config, num_trials=1,
        )
        assert report.final_error < 0.35

    def test_ridge_device_server_roundtrip(self, rng):
        """Regression targets flow through the same protocol."""
        model = RidgeRegression(num_features=3, residual_bound=2.0)
        server = ServerCore(model, config=ServerConfig(max_iterations=1000))
        token = server.register_device(0)
        config = DeviceConfig.default(batch_size=5, num_classes=1, epsilon=2.0)
        device = Device(0, model, config, token, rng)
        true_w = np.array([0.3, -0.2, 0.1])
        for step in range(200):
            x = rng.normal(size=3)
            x /= np.abs(x).sum()
            y = float(x @ true_w)
            if device.observe(x, y):
                device.mark_checkout_requested()
                response = server.handle_checkout(
                    CheckoutRequest(0, token, float(step))
                )
                result = device.complete_checkout(
                    response.parameters, response.server_iteration
                )
                server.handle_checkin(result.message)
        assert server.iteration > 10


class TestRemark3Optimizers:
    def test_adagrad_server(self, data):
        """Swapping the server update (Remark 3) needs no device change."""
        train, test = data
        model = MulticlassLogisticRegression(50, 10)
        parts = iid_partition(train, 20, np.random.default_rng(0))
        optimizer = AdaGrad(
            model.init_parameters(), constant=0.5,
            projection=L2BallProjection(100.0),
        )
        server = ServerCore(model, optimizer,
                               ServerConfig(max_iterations=10**9))
        # Drive manually through the simulator's plumbing, replacing the
        # server: simplest is a fresh simulator with its own SGD, so here we
        # instead exercise AdaGrad directly against device gradients.
        token = server.register_device(0)
        config = DeviceConfig.default(batch_size=10, num_classes=10)
        device = Device(0, model, config, token, np.random.default_rng(1))
        consumed = 0
        for x, y in parts[0].samples():
            if device.observe(x, y):
                device.mark_checkout_requested()
                response = server.handle_checkout(CheckoutRequest(0, token, 0.0))
                result = device.complete_checkout(
                    response.parameters, response.server_iteration
                )
                server.handle_checkin(result.message)
                consumed += result.message.num_samples
        assert consumed > 0
        from repro.evaluation import test_error

        assert test_error(model, server.parameters, test) < 0.6


class TestNonIidData:
    def test_dirichlet_skew_still_learns(self, data):
        """Crowd-ML pools gradients, so label-skewed devices still produce
        a global model (unlike the decentralized approach)."""
        train, test = data
        config = SimulationConfig(
            num_devices=20, num_passes=3, learning_rate_constant=30.0,
        )
        report = run_crowd_trials(
            lambda: MulticlassLogisticRegression(50, 10),
            train, test, config, num_trials=2,
            partition=lambda ds, m, rng: dirichlet_partition(ds, m, rng, alpha=0.1),
        )
        assert report.tail_error() < 0.35


class TestOutageResilience:
    def test_heavy_outage_degrades_gracefully(self, data):
        train, test = data

        def run(drop):
            config = SimulationConfig(
                num_devices=20, num_passes=3, learning_rate_constant=30.0,
                outage=BernoulliOutage(drop),
            )
            return run_crowd_trials(
                lambda: MulticlassLogisticRegression(50, 10),
                train, test, config, num_trials=1,
            )

        clean = run(0.0)
        lossy = run(0.4)
        # Remark 1: failures are non-critical — learning completes, with at
        # most a modest accuracy penalty.
        assert lossy.final_error < clean.final_error + 0.15
