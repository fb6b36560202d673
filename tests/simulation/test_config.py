"""Tests for the simulation configuration."""

import math

import pytest

from repro.network import LinkDelays
from repro.simulation import SimulationConfig
from repro.utils.exceptions import ConfigurationError


class TestValidation:
    def test_defaults(self):
        config = SimulationConfig(num_devices=10)
        assert config.batch_size == 1
        assert math.isinf(config.epsilon)
        assert config.link_delays.mean_round_trip == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_devices": 0},
            {"num_devices": 5, "batch_size": 0},
            {"num_devices": 5, "learning_rate_constant": 0.0},
            {"num_devices": 5, "holdout_fraction": -0.1},
            {"num_devices": 5, "sampling_rate": 0.0},
            {"num_devices": 5, "num_passes": 0},
            {"num_devices": 5, "holdout_fraction": 1.0},
            {"num_devices": 5, "buffer_factor": 0},
            {"num_devices": 5, "num_snapshots": 0},
            {"num_devices": 5, "projection_radius": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)

    def test_l2_is_the_models_knob(self):
        # λ of Eq. (2) lives in the model, which is where a bad value is
        # rejected; the simulation config has no field to shadow it.
        from repro.models import MulticlassLogisticRegression

        with pytest.raises(ConfigurationError):
            MulticlassLogisticRegression(4, 3, l2_regularization=-1.0)
        with pytest.raises(TypeError):
            SimulationConfig(num_devices=5, l2_regularization=1e-4)

    def test_unconstrained_projection_allowed(self):
        config = SimulationConfig(num_devices=5, projection_radius=None)
        assert config.projection_radius is None


class TestHttpTransport:
    def test_http_requires_server_url(self):
        with pytest.raises(ConfigurationError, match="server_url"):
            SimulationConfig(num_devices=5, transport="http")

    def test_server_url_requires_http_transport(self):
        with pytest.raises(ConfigurationError, match="server_url"):
            SimulationConfig(num_devices=5, server_url="http://127.0.0.1:1")

    def test_http_resolves_to_itself(self):
        config = SimulationConfig(
            num_devices=5, transport="http", server_url="http://127.0.0.1:1"
        )
        assert config.resolved_transport() == "http"

    def test_auto_never_selects_http(self):
        assert SimulationConfig(num_devices=5).resolved_transport() == "direct"

    def test_http_rejects_delays_and_outages(self):
        from repro.network.outage import BernoulliOutage

        http = dict(transport="http", server_url="http://127.0.0.1:1")
        for fused in (http, dict(transport="direct")):
            with pytest.raises(ConfigurationError, match="zero link delays"):
                SimulationConfig(
                    num_devices=5, link_delays=LinkDelays.uniform(0.5), **fused
                )
            with pytest.raises(ConfigurationError, match="reliable"):
                SimulationConfig(
                    num_devices=5, outage=BernoulliOutage(0.5), **fused
                )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate_constant": 30.0},
            {"projection_radius": 10.0},
            {"max_iterations": 50},
            {"target_error": 0.2},
        ],
    )
    def test_http_rejects_server_owned_knobs(self, kwargs):
        """Knobs the live server owns are rejected, not silently ignored."""
        with pytest.raises(ConfigurationError, match="owned by the live server"):
            SimulationConfig(
                num_devices=5, transport="http",
                server_url="http://127.0.0.1:1", **kwargs,
            )

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            SimulationConfig(num_devices=5, transport="grpc")


class TestDelayUnits:
    def test_delta_conversion(self):
        """Δ = 1/(M·F_s): a k·Δ delay spans k crowd-wide samples."""
        config = SimulationConfig(num_devices=100, sampling_rate=2.0)
        tau = config.delay_in_sample_units(1000)
        assert tau == pytest.approx(1000 / (100 * 2.0))

    def test_one_delta_is_one_sample_interval(self):
        config = SimulationConfig(num_devices=50, sampling_rate=1.0)
        # During 1Δ the crowd generates exactly one sample on average.
        tau = config.delay_in_sample_units(1)
        assert tau * 50 * 1.0 == pytest.approx(1.0)
