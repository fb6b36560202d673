"""Tests for the server runtime (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import (
    CheckinMessage,
    CheckoutRequest,
    ServerConfig,
    ServerCore,
)
from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, ConstantRate
from repro.utils.exceptions import AuthenticationError, ProtocolError


@pytest.fixture
def model():
    return MulticlassLogisticRegression(num_features=3, num_classes=2)


@pytest.fixture
def server(model):
    return ServerCore(
        model,
        optimizer=SGD(model.init_parameters(), schedule=ConstantRate(0.1)),
        config=ServerConfig(max_iterations=100),
    )


def checkin(device_id, token, gradient, num_samples=1, errors=0, labels=(1, 0),
            checkout_iteration=0):
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=np.asarray(gradient, dtype=np.float64),
        num_samples=num_samples,
        noisy_error_count=errors,
        noisy_label_counts=np.asarray(labels, dtype=np.int64),
        checkout_iteration=checkout_iteration,
    )


class TestCheckout:
    def test_serves_current_parameters(self, server):
        token = server.register_device(1)
        response = server.handle_checkout(CheckoutRequest(1, token, 0.0))
        assert np.array_equal(response.parameters, np.zeros(6))
        assert response.server_iteration == 0

    def test_rejects_unknown_device(self, server):
        with pytest.raises(AuthenticationError):
            server.handle_checkout(CheckoutRequest(9, "x", 0.0))
        assert server.rejected_messages == 1

    def test_rejects_bad_token(self, server):
        server.register_device(1)
        with pytest.raises(AuthenticationError):
            server.handle_checkout(CheckoutRequest(1, "forged", 0.0))

    def test_counts_checkouts(self, server):
        token = server.register_device(1)
        for _ in range(3):
            server.handle_checkout(CheckoutRequest(1, token, 0.0))
        assert server.checkouts_served == 3


class TestCheckin:
    def test_applies_sgd_update(self, server):
        token = server.register_device(1)
        gradient = np.ones(6)
        server.handle_checkin(checkin(1, token, gradient))
        # w <- w - 0.1 * g.
        assert np.allclose(server.parameters, -0.1)
        assert server.iteration == 1

    def test_iteration_advances_per_checkin(self, server):
        token = server.register_device(1)
        for _ in range(5):
            server.handle_checkin(checkin(1, token, np.zeros(6)))
        assert server.iteration == 5

    def test_monitor_accumulates(self, server):
        token = server.register_device(1)
        server.handle_checkin(checkin(1, token, np.zeros(6), num_samples=10,
                                      errors=3, labels=(6, 4)))
        assert server.monitor.total_samples == 10
        assert server.monitor.error_estimate() == pytest.approx(0.3)

    def test_rejects_wrong_gradient_length(self, server):
        token = server.register_device(1)
        with pytest.raises(ProtocolError):
            server.handle_checkin(checkin(1, token, np.zeros(4)))

    def test_rejects_unauthenticated(self, server):
        with pytest.raises(AuthenticationError):
            server.handle_checkin(checkin(2, "x", np.zeros(6)))

    def test_ack_reports_iteration(self, server):
        token = server.register_device(1)
        ack = server.handle_checkin(checkin(1, token, np.zeros(6)))
        assert ack.server_iteration == 1


class TestStopping:
    def test_stops_at_max_iterations(self, model):
        server = ServerCore(
            model,
            optimizer=SGD(model.init_parameters()),
            config=ServerConfig(max_iterations=2),
        )
        token = server.register_device(1)
        server.handle_checkin(checkin(1, token, np.zeros(6)))
        assert not server.stopped
        server.handle_checkin(checkin(1, token, np.zeros(6)))
        assert server.stopped
        with pytest.raises(ProtocolError):
            server.handle_checkin(checkin(1, token, np.zeros(6)))
        with pytest.raises(ProtocolError):
            server.handle_checkout(CheckoutRequest(1, token, 0.0))

    def test_stops_at_target_error(self, model):
        server = ServerCore(
            model,
            optimizer=SGD(model.init_parameters()),
            config=ServerConfig(
                max_iterations=10**6, target_error=0.2,
                min_samples_for_error_stop=50,
            ),
        )
        token = server.register_device(1)
        # 100 samples at 10% error -> estimate 0.1 <= rho once min samples hit.
        for _ in range(10):
            if server.stopped:
                break
            server.handle_checkin(
                checkin(1, token, np.zeros(6), num_samples=10, errors=1)
            )
        assert server.stopped
        assert server.stopping_decision().reason.value == "target_error"

    def test_error_stop_respects_min_samples(self, model):
        server = ServerCore(
            model,
            optimizer=SGD(model.init_parameters()),
            config=ServerConfig(
                max_iterations=10**6, target_error=0.5,
                min_samples_for_error_stop=1000,
            ),
        )
        token = server.register_device(1)
        server.handle_checkin(checkin(1, token, np.zeros(6), num_samples=10, errors=0))
        assert not server.stopped


class TestAsynchrony:
    def test_stale_gradients_accepted(self, server):
        """A check-in computed against an old w still applies (Fig. 2:
        devices work asynchronously)."""
        token = server.register_device(1)
        old_iteration = server.iteration
        for _ in range(5):
            server.handle_checkin(checkin(1, token, np.ones(6) * 0.01))
        # Message claims it used iteration-0 parameters; still applied.
        ack = server.handle_checkin(
            checkin(1, token, np.ones(6) * 0.01, checkout_iteration=old_iteration)
        )
        assert ack.server_iteration == 6

    def test_interleaved_devices(self, server):
        tokens = {d: server.register_device(d) for d in (1, 2, 3)}
        for d in (1, 2, 3, 2, 1):
            server.handle_checkin(checkin(d, tokens[d], np.zeros(6)))
        assert server.iteration == 5
        assert server.monitor.num_devices_seen == 3


class TestOptimizerMismatch:
    def test_wrong_optimizer_length_rejected(self, model):
        with pytest.raises(ProtocolError):
            ServerCore(model, optimizer=SGD(np.zeros(4)))
