"""Tests for device/server configuration validation."""

import math

import pytest

from repro.core import DeviceConfig, ServerConfig
from repro.privacy import PrivacyBudget
from repro.utils.exceptions import ConfigurationError


class TestDeviceConfig:
    def test_default_constructor(self):
        config = DeviceConfig.default(batch_size=10, num_classes=5, epsilon=1.0)
        assert config.batch_size == 10
        assert config.buffer_capacity == 100
        assert config.budget.total_epsilon == pytest.approx(1.0)

    def test_default_non_private(self):
        config = DeviceConfig.default(batch_size=1, num_classes=3)
        assert not config.budget.is_private

    def test_rejects_buffer_below_batch(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(
                batch_size=10,
                buffer_capacity=5,
                budget=PrivacyBudget.non_private(3),
            )

    def test_rejects_zero_batch(self):
        with pytest.raises(ConfigurationError):
            DeviceConfig(0, 10, PrivacyBudget.non_private(3))

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_rejects_bad_holdout(self, fraction):
        with pytest.raises(ConfigurationError):
            DeviceConfig(1, 10, PrivacyBudget.non_private(3),
                         holdout_fraction=fraction)

    def test_holdout_zero_allowed(self):
        config = DeviceConfig(1, 10, PrivacyBudget.non_private(3), holdout_fraction=0.0)
        assert config.holdout_fraction == 0.0


class TestServerConfig:
    def test_basic(self):
        config = ServerConfig(max_iterations=100, target_error=0.1)
        assert config.max_iterations == 100
        assert config.target_error == 0.1

    def test_no_target_error(self):
        assert ServerConfig(max_iterations=10).target_error is None

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(max_iterations=0)

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_rejects_bad_target_error(self, rho):
        with pytest.raises(ConfigurationError):
            ServerConfig(max_iterations=10, target_error=rho)
