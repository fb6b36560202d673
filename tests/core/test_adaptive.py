"""Tests for the adaptive-minibatch refinement (§IV-B3)."""

import numpy as np
import pytest

from repro.core import (
    Device,
    DeviceConfig,
    FixedBatch,
    StalenessAdaptiveBatch,
)
from repro.models import MulticlassLogisticRegression
from repro.utils.exceptions import ConfigurationError


class TestPolicies:
    def test_fixed_never_changes(self):
        policy = FixedBatch(5)
        assert policy.next_batch_size(5, 0) == 5
        assert policy.next_batch_size(5, 10_000) == 5

    def test_adaptive_grows_under_staleness(self):
        policy = StalenessAdaptiveBatch(target_staleness=10, max_batch=64)
        assert policy.next_batch_size(4, interleaved_updates=100) == 8

    def test_adaptive_growth_capped(self):
        policy = StalenessAdaptiveBatch(target_staleness=10, max_batch=16)
        assert policy.next_batch_size(16, 1000) == 16

    def test_adaptive_shrinks_when_quiet(self):
        policy = StalenessAdaptiveBatch(target_staleness=10, min_batch=2)
        assert policy.next_batch_size(8, interleaved_updates=3) == 7
        assert policy.next_batch_size(2, interleaved_updates=0) == 2

    def test_growth_always_progresses(self):
        """Even at b = 1 with growth 2.0 the next b must exceed 1."""
        policy = StalenessAdaptiveBatch(target_staleness=0, max_batch=64)
        assert policy.next_batch_size(1, 5) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_staleness": -1},
            {"target_staleness": 1, "min_batch": 0},
            {"target_staleness": 1, "min_batch": 10, "max_batch": 5},
            {"target_staleness": 1, "growth_factor": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StalenessAdaptiveBatch(**kwargs)

    def test_fixed_validation(self):
        with pytest.raises(ConfigurationError):
            FixedBatch(0)


class TestDeviceIntegration:
    def _device(self, policy, batch_size=1, buffer_capacity=64):
        model = MulticlassLogisticRegression(2, 2)
        config = DeviceConfig.default(batch_size=batch_size, num_classes=2,
                                      buffer_factor=buffer_capacity)
        return Device(0, model, config, "t", np.random.default_rng(0),
                      batch_policy=policy), model

    def _cycle(self, device, model, server_iteration):
        """Feed samples until checkout triggers, then complete it."""
        rng = np.random.default_rng(1)
        while not device.wants_checkout:
            x = rng.normal(size=2)
            device.observe(x / np.abs(x).sum(), 0)
        device.mark_checkout_requested()
        device.complete_checkout(
            np.zeros(model.num_parameters), server_iteration
        )

    def test_batch_grows_with_observed_interleaving(self):
        policy = StalenessAdaptiveBatch(target_staleness=5, max_batch=32)
        device, model = self._device(policy)
        assert device.current_batch_size == 1
        self._cycle(device, model, server_iteration=0)
        # 100 foreign updates interleaved -> grow.
        self._cycle(device, model, server_iteration=101)
        assert device.current_batch_size == 2
        self._cycle(device, model, server_iteration=300)
        assert device.current_batch_size == 4

    def test_batch_shrinks_when_no_interleaving(self):
        policy = StalenessAdaptiveBatch(target_staleness=5, min_batch=1,
                                        max_batch=32)
        device, model = self._device(policy, batch_size=4)
        self._cycle(device, model, server_iteration=0)
        self._cycle(device, model, server_iteration=1)  # zero interleaved
        assert device.current_batch_size == 3

    def test_batch_clamped_to_buffer(self):
        policy = StalenessAdaptiveBatch(target_staleness=0, max_batch=10_000)
        device, model = self._device(policy, batch_size=1, buffer_capacity=8)
        self._cycle(device, model, 0)
        for it in (1000, 3000, 9000, 27000):
            self._cycle(device, model, it)
        assert device.current_batch_size <= 8

    def test_no_policy_keeps_batch_fixed(self):
        device, model = self._device(None, batch_size=3)
        self._cycle(device, model, server_iteration=0)
        self._cycle(device, model, server_iteration=500)
        assert device.current_batch_size == 3


class TestSimulationIntegration:
    def test_adaptive_policy_cuts_staleness_and_traffic(self):
        """The §IV-B3 refinement targets staleness and communication:
        starting from b = 1 under heavy delay, adaptation must slash both
        the realized staleness and the uplink volume while keeping the
        error comparable to the fixed-b=1 run."""
        from repro.data import iid_partition, make_mnist_like
        from repro.network import LinkDelays
        from repro.simulation import CrowdSimulator, SimulationConfig

        train, test = make_mnist_like(num_train=3000, num_test=600, seed=0)
        devices = 50

        def run(policy_factory):
            config = SimulationConfig(
                num_devices=devices,
                batch_size=1,
                epsilon=10.0,
                learning_rate_constant=30.0,
                link_delays=LinkDelays.uniform(4.0),
                num_passes=4,
                batch_policy_factory=policy_factory,
            )
            parts = iid_partition(train, devices, np.random.default_rng(0))
            return CrowdSimulator(
                MulticlassLogisticRegression(50, 10, l2_regularization=1e-4),
                parts, test, config, seed=0,
            ).run()

        fixed = run(None)
        adaptive = run(
            lambda: StalenessAdaptiveBatch(target_staleness=10, max_batch=32)
        )
        # Dekel et al.'s scaling lever: far fewer stale updates in flight.
        assert adaptive.mean_staleness < fixed.mean_staleness / 1.5
        # Far less uplink traffic (fewer, larger check-ins).
        assert (
            adaptive.communication.uplink_floats
            < fixed.communication.uplink_floats / 2
        )
        # At no meaningful accuracy cost on this horizon.
        assert adaptive.curve.tail_error() < fixed.curve.tail_error() + 0.1
