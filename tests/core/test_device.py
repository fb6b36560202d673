"""Tests for the device runtime (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core import Device, DeviceConfig
from repro.models import MulticlassLogisticRegression
from repro.privacy import PrivacyBudget, split_budget
from repro.utils.exceptions import ConfigurationError, ProtocolError


@pytest.fixture
def model():
    return MulticlassLogisticRegression(num_features=3, num_classes=2)


def make_device(model, rng, batch_size=2, buffer_capacity=6, epsilon=math.inf,
                holdout_fraction=0.0):
    budget = split_budget(epsilon, model.num_classes)
    config = DeviceConfig(
        batch_size=batch_size,
        buffer_capacity=buffer_capacity,
        budget=budget,
        holdout_fraction=holdout_fraction,
    )
    return Device(7, model, config, token="tok", rng=rng)


def sample(rng, dim=3):
    x = rng.normal(size=dim)
    return x / np.abs(x).sum()


class TestRoutine1:
    def test_no_checkout_until_batch_full(self, model, rng):
        device = make_device(model, rng, batch_size=3)
        assert device.observe(sample(rng), 0) is False
        assert device.observe(sample(rng), 1) is False
        assert device.observe(sample(rng), 0) is True
        assert device.buffer_size == 3

    def test_buffer_capacity_drops_excess(self, model, rng):
        device = make_device(model, rng, batch_size=2, buffer_capacity=3)
        for _ in range(5):
            device.observe(sample(rng), 0)
        assert device.buffer_size == 3
        assert device.samples_dropped == 2
        assert device.samples_observed == 5

    def test_no_duplicate_checkout_while_awaiting(self, model, rng):
        device = make_device(model, rng, batch_size=1)
        assert device.observe(sample(rng), 0) is True
        device.mark_checkout_requested()
        # More samples buffer up but do not re-trigger.
        assert device.observe(sample(rng), 1) is False
        assert device.awaiting_checkout

    def test_double_request_raises(self, model, rng):
        device = make_device(model, rng, batch_size=1)
        device.observe(sample(rng), 0)
        device.mark_checkout_requested()
        with pytest.raises(ProtocolError):
            device.mark_checkout_requested()

    def test_rejects_wrong_feature_shape(self, model, rng):
        device = make_device(model, rng)
        with pytest.raises(ConfigurationError):
            device.observe(np.zeros(5), 0)

    @pytest.mark.parametrize("label", [3, 7, -1])
    def test_out_of_range_label_refused_before_buffering(self, rng, label):
        """A label outside [0, C) must not wedge the device: it is refused
        at Routine 1, and later rounds run on the good samples."""
        model = MulticlassLogisticRegression(num_features=3, num_classes=3)
        device = make_device(model, rng, batch_size=2)
        device.observe(sample(rng), 2)
        with pytest.raises(ConfigurationError, match="label"):
            device.observe(sample(rng), label)
        with pytest.raises(ConfigurationError, match="label"):
            device.observe_batch(np.stack([sample(rng), sample(rng)]), [0, label])
        assert device.buffer_size == 1
        assert device.observe(sample(rng), 0) is True
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(9), server_iteration=0)
        assert result.message.num_samples == 2
        assert device.buffer_size == 0

    def test_regression_targets_are_not_class_checked(self, rng):
        from repro.models import RidgeRegression

        model = RidgeRegression(num_features=3)
        device = make_device(model, rng, batch_size=3)
        device.observe(sample(rng), -4.5)
        assert device.observe_batch(np.stack([sample(rng), sample(rng)]), [7.0, 1e3])
        assert device.buffer_size == 3


class TestRemark1Retry:
    def test_failed_checkout_allows_retry(self, model, rng):
        device = make_device(model, rng, batch_size=1)
        device.observe(sample(rng), 0)
        device.mark_checkout_requested()
        device.on_checkout_failed()
        assert not device.awaiting_checkout
        assert device.failed_checkouts == 1
        # Buffer intact: the next observation re-triggers.
        assert device.wants_checkout

    def test_buffer_preserved_across_failures(self, model, rng):
        device = make_device(model, rng, batch_size=2)
        device.observe(sample(rng), 0)
        device.observe(sample(rng), 1)
        device.mark_checkout_requested()
        device.on_checkout_failed()
        assert device.buffer_size == 2


class TestRoutine2:
    def test_checkin_consumes_buffer(self, model, rng):
        device = make_device(model, rng, batch_size=2)
        device.observe(sample(rng), 0)
        device.observe(sample(rng), 1)
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), server_iteration=4)
        assert result.message.num_samples == 2
        assert result.message.checkout_iteration == 4
        assert device.buffer_size == 0
        assert device.checkins_completed == 1

    def test_checkin_seq_stamped_on_the_message(self, model, rng):
        device = make_device(model, rng, batch_size=1)
        device.observe(sample(rng), 0)
        assert device.complete_checkout(np.zeros(6), 0).message.checkin_seq == -1
        device.observe(sample(rng), 1)
        result = device.complete_checkout(np.zeros(6), 1, checkin_seq=5)
        assert result.message.checkin_seq == 5

    def test_oversized_buffer_fully_consumed(self, model, rng):
        """If extra samples arrived while awaiting, all n_s ≥ b are used."""
        device = make_device(model, rng, batch_size=2)
        device.observe(sample(rng), 0)
        device.observe(sample(rng), 1)
        device.mark_checkout_requested()
        device.observe(sample(rng), 0)
        result = device.complete_checkout(np.zeros(6), 0)
        assert result.message.num_samples == 3

    def test_gradient_matches_model_when_non_private(self, model, rng):
        device = make_device(model, rng, batch_size=2)
        xs = [sample(rng) for _ in range(2)]
        ys = [0, 1]
        for x, y in zip(xs, ys):
            device.observe(x, y)
        device.mark_checkout_requested()
        w = rng.normal(size=6)
        result = device.complete_checkout(w, 0)
        expected = model.gradient(w, np.stack(xs), np.array(ys))
        assert np.allclose(result.message.gradient, expected)

    def test_error_count_correct_when_non_private(self, model, rng):
        device = make_device(model, rng, batch_size=2)
        # With w = 0 predictions are argmax of zeros = class 0.
        device.observe(sample(rng), 0)  # correct
        device.observe(sample(rng), 1)  # error
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), 0)
        assert result.message.noisy_error_count == 1
        assert result.per_sample_errors.tolist() == [False, True]

    def test_label_counts_correct_when_non_private(self, model, rng):
        device = make_device(model, rng, batch_size=3)
        for y in (0, 1, 1):
            device.observe(sample(rng), y)
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), 0)
        assert result.message.noisy_label_counts.tolist() == [1, 2]

    def test_empty_buffer_checkout_raises(self, model, rng):
        device = make_device(model, rng)
        with pytest.raises(ProtocolError):
            device.complete_checkout(np.zeros(6), 0)

    def test_counters_reset_after_checkin(self, model, rng):
        device = make_device(model, rng, batch_size=1)
        device.observe(sample(rng), 1)
        device.mark_checkout_requested()
        device.complete_checkout(np.zeros(6), 0)
        device.observe(sample(rng), 0)
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), 0)
        assert result.message.noisy_label_counts.tolist() == [1, 0]


class TestRemark2Holdout:
    def test_holdout_excluded_from_gradient(self, model):
        """With holdout ≈ 1⁻ the gradient averages only training samples."""
        rng = np.random.default_rng(0)
        device = make_device(model, rng, batch_size=40, buffer_capacity=80,
                             holdout_fraction=0.5)
        xs, ys = [], []
        gen = np.random.default_rng(1)
        for i in range(40):
            x = sample(gen)
            xs.append(x)
            ys.append(i % 2)
            device.observe(x, ys[-1])
        device.mark_checkout_requested()
        w = gen.normal(size=6)
        result = device.complete_checkout(w, 0)
        full_gradient = model.gradient(w, np.stack(xs), np.array(ys))
        # Holdout split makes the released gradient differ from the full one.
        assert not np.allclose(result.message.gradient, full_gradient)

    def test_error_count_from_holdout_only(self, model):
        rng = np.random.default_rng(2)
        device = make_device(model, rng, batch_size=30, buffer_capacity=60,
                             holdout_fraction=0.5)
        gen = np.random.default_rng(3)
        for i in range(30):
            device.observe(sample(gen), 1)  # w=0 predicts 0 -> all errors
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), 0)
        # Error count must be well below 30 (only the holdout subset).
        assert 0 < result.message.noisy_error_count < 30


class TestPrivacyAccounting:
    def test_accountant_charged_per_checkin(self, model, rng):
        device = make_device(model, rng, batch_size=1, epsilon=1.0)
        for _ in range(3):
            device.observe(sample(rng), 0)
            device.mark_checkout_requested()
            device.complete_checkout(np.zeros(6), 0)
        spend = device.accountant.spend()
        assert spend.per_sample_epsilon == pytest.approx(1.0)
        assert spend.total_epsilon == pytest.approx(3.0)

    def test_budget_mismatch_rejected(self, model, rng):
        bad_budget = PrivacyBudget.non_private(5)  # model has 2 classes
        config = DeviceConfig(1, 10, bad_budget)
        with pytest.raises(ConfigurationError):
            Device(0, model, config, "t", rng)


class TestGaussianDevice:
    def test_device_uses_gaussian_variant(self, model):
        """Footnote 1's variant flows from DeviceConfig through Routine 3."""
        budget = split_budget(0.5, model.num_classes)
        config = DeviceConfig(
            batch_size=1, buffer_capacity=10, budget=budget,
            gradient_noise="gaussian", gaussian_delta=1e-5,
        )
        device = Device(0, model, config, "t", np.random.default_rng(0))
        x = np.array([0.5, 0.3, 0.2])
        device.observe(x, 0)
        device.mark_checkout_requested()
        result = device.complete_checkout(np.zeros(6), 0)
        # The gradient release record carries the delta.
        assert result.message.releases[0].delta == 1e-5
        spend = device.accountant.spend()
        assert spend.total_delta == pytest.approx(1e-5)
