"""Tests for the event-driven crowd simulator."""

import math

import numpy as np
import pytest

from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network import BernoulliOutage, LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def data():
    return make_mnist_like(num_train=400, num_test=200, seed=0)


def build(data, config, seed=0):
    train, test = data
    parts = iid_partition(train, config.num_devices, np.random.default_rng(seed))
    model = MulticlassLogisticRegression(50, 10)
    return CrowdSimulator(model, parts, test, config, seed=seed)


class TestBasicRun:
    def test_consumes_all_data(self, data):
        config = SimulationConfig(num_devices=10, learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.total_samples_consumed == 400
        assert trace.stop_reason == "data_exhausted"

    def test_num_passes_multiplies_samples(self, data):
        config = SimulationConfig(num_devices=10, num_passes=3,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.total_samples_consumed == 1200

    def test_learning_happens(self, data):
        config = SimulationConfig(num_devices=10, num_passes=3,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.curve.final_error < trace.curve.errors[0]
        assert trace.curve.final_error < 0.4

    def test_batch_size_divides_updates(self, data):
        config = SimulationConfig(num_devices=10, batch_size=4,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.server_iterations == 400 // 4

    def test_curve_monotone_x_axis(self, data):
        config = SimulationConfig(num_devices=10, learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert np.all(np.diff(trace.curve.iterations) > 0)

    def test_online_errors_length(self, data):
        config = SimulationConfig(num_devices=10, learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.online_errors.shape[0] == 400

    def test_device_count_mismatch_rejected(self, data):
        train, test = data
        parts = iid_partition(train, 5, np.random.default_rng(0))
        config = SimulationConfig(num_devices=10)
        with pytest.raises(ConfigurationError):
            CrowdSimulator(MulticlassLogisticRegression(50, 10), parts, test, config)


class TestDeterminism:
    def test_same_seed_same_trace(self, data):
        config = SimulationConfig(num_devices=10, epsilon=1.0,
                                  link_delays=LinkDelays.uniform(0.5),
                                  learning_rate_constant=30.0)
        a = build(data, config, seed=3).run()
        b = build(data, config, seed=3).run()
        assert np.array_equal(a.curve.errors, b.curve.errors)
        assert np.array_equal(a.final_parameters, b.final_parameters)

    def test_different_seed_different_trace(self, data):
        config = SimulationConfig(num_devices=10, epsilon=1.0,
                                  learning_rate_constant=30.0)
        a = build(data, config, seed=1).run()
        b = build(data, config, seed=2).run()
        assert not np.array_equal(a.final_parameters, b.final_parameters)


class TestPrivacyIntegration:
    def test_per_sample_epsilon_reported(self, data):
        config = SimulationConfig(num_devices=10, epsilon=2.0,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.per_sample_epsilon == pytest.approx(2.0)

    def test_non_private_run_spends_nothing(self, data):
        config = SimulationConfig(num_devices=10, epsilon=math.inf,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.per_sample_epsilon == 0.0


class TestDelays:
    def test_delayed_run_completes(self, data):
        config = SimulationConfig(
            num_devices=10,
            link_delays=LinkDelays.uniform(5.0),
            learning_rate_constant=30.0,
        )
        trace = build(data, config).run()
        # In-flight round trips at stream end may strand < b·M samples.
        assert trace.total_samples_consumed >= 350

    def test_delay_changes_event_interleaving(self, data):
        no_delay = SimulationConfig(num_devices=10, learning_rate_constant=30.0)
        delayed = SimulationConfig(
            num_devices=10,
            link_delays=LinkDelays.uniform(20.0),
            learning_rate_constant=30.0,
        )
        a = build(data, no_delay).run()
        b = build(data, delayed).run()
        assert not np.array_equal(a.final_parameters, b.final_parameters)


class TestOutages:
    def test_drops_counted_and_run_survives(self, data):
        config = SimulationConfig(
            num_devices=10,
            outage=BernoulliOutage(0.2),
            learning_rate_constant=30.0,
        )
        trace = build(data, config).run()
        assert trace.communication.messages_dropped > 0
        # Remark 1: learning still progresses despite failures.
        assert trace.server_iterations > 100
        assert trace.curve.final_error < 0.5


class TestCommunicationAccounting:
    def test_minibatch_reduces_message_count(self, data):
        small = build(data, SimulationConfig(num_devices=10, batch_size=1,
                                             learning_rate_constant=30.0)).run()
        large = build(data, SimulationConfig(num_devices=10, batch_size=10,
                                             learning_rate_constant=30.0)).run()
        assert large.communication.checkins_delivered == pytest.approx(
            small.communication.checkins_delivered / 10, rel=0.05
        )

    def test_uplink_volume_scales_inversely_with_b(self, data):
        small = build(data, SimulationConfig(num_devices=10, batch_size=1,
                                             learning_rate_constant=30.0)).run()
        large = build(data, SimulationConfig(num_devices=10, batch_size=10,
                                             learning_rate_constant=30.0)).run()
        assert large.communication.uplink_floats < small.communication.uplink_floats / 5


class TestStoppingCriteria:
    def test_max_iterations_stops_early(self, data):
        config = SimulationConfig(num_devices=10, max_iterations=50,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.server_iterations == 50
        assert trace.stop_reason == "max_iterations"

    def test_target_error_stop(self, data):
        config = SimulationConfig(num_devices=10, num_passes=5, target_error=0.9,
                                  learning_rate_constant=30.0)
        trace = build(data, config).run()
        assert trace.stop_reason == "target_error"
        assert trace.total_samples_consumed < 2000


class TestSnapshots:
    def test_snapshot_memoization_counts(self, data):
        """One big check-in crossing several grid points evaluates the
        forward pass once, not once per grid point."""
        simulator = build(
            data,
            SimulationConfig(num_devices=5, batch_size=20, num_snapshots=40),
        )
        trace = simulator.run()
        evaluator = simulator._snapshot_eval
        assert evaluator.hits > 0
        # Parameters only change per applied update, so at most one miss
        # per server iteration (plus the final snapshot) — every repeat
        # within a multi-grid-point check-in must come from the cache.
        assert evaluator.misses <= trace.server_iterations + 1
        assert evaluator.hits + evaluator.misses >= trace.curve.iterations.size
