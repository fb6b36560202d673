"""End-to-end integration tests reproducing the figures' qualitative shape
at reduced scale (full-scale regeneration lives in benchmarks/)."""

import math

import numpy as np
import pytest

from repro.baselines import (
    CentralizedBatchTrainer,
    CentralizedSGDTrainer,
    DecentralizedTrainer,
)
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.optim import InverseSqrtRate
from repro.privacy import CentralizedBudget
from repro.simulation import SimulationConfig, run_crowd_trials

LEARNING_RATE = 30.0
L2 = 1e-4


@pytest.fixture(scope="module")
def data():
    return make_mnist_like(num_train=4000, num_test=1000, seed=0)


def model_factory():
    from repro.data import MNIST_CLASSES, MNIST_DIM

    return MulticlassLogisticRegression(MNIST_DIM, MNIST_CLASSES, l2_regularization=L2)


@pytest.fixture(scope="module")
def batch_error(data):
    train, test = data
    return CentralizedBatchTrainer(model_factory()).evaluate(
        train, test, np.random.default_rng(0)
    )


class TestFig4Shape:
    """Crowd-ML ties centralized batch; decentralized plateaus far above."""

    def test_crowd_matches_central_batch(self, data, batch_error):
        train, test = data
        config = SimulationConfig(
            num_devices=50, num_passes=3, learning_rate_constant=LEARNING_RATE,
        )
        report = run_crowd_trials(model_factory, train, test, config, num_trials=2)
        assert report.tail_error() <= batch_error + 0.05

    def test_decentralized_much_worse(self, data, batch_error):
        train, test = data
        parts = iid_partition(train, 60, np.random.default_rng(0))  # ~66/device
        trainer = DecentralizedTrainer(
            model_factory(), InverseSqrtRate(LEARNING_RATE), evaluation_devices=10
        )
        result = trainer.fit(parts, test, np.random.default_rng(1), num_passes=3)
        assert result.curve.final_error > batch_error + 0.15

    def test_crowd_error_decreases_over_time(self, data):
        train, test = data
        config = SimulationConfig(
            num_devices=50, num_passes=2, learning_rate_constant=LEARNING_RATE,
        )
        report = run_crowd_trials(model_factory, train, test, config, num_trials=1)
        curve = report.mean_curve
        assert curve.errors[-1] < curve.errors[0]


class TestFig5Shape:
    """At ε⁻¹ = 0.1: Crowd-ML degrades gracefully and improves with b;
    input-perturbed central SGD is near-useless."""

    EPSILON = 10.0  # ε⁻¹ = 0.1

    def test_crowd_b20_beats_private_central_batch(self, data):
        train, test = data
        private_batch = CentralizedBatchTrainer(
            model_factory(), budget=CentralizedBudget.even_split(self.EPSILON)
        ).evaluate(train, test, np.random.default_rng(0))
        config = SimulationConfig(
            num_devices=50, batch_size=20, epsilon=self.EPSILON, num_passes=4,
            learning_rate_constant=LEARNING_RATE,
        )
        report = run_crowd_trials(model_factory, train, test, config, num_trials=2)
        assert report.tail_error() < private_batch - 0.2

    def test_crowd_improves_with_batch_size(self, data):
        train, test = data

        def tail(b):
            config = SimulationConfig(
                num_devices=50, batch_size=b, epsilon=self.EPSILON, num_passes=4,
                learning_rate_constant=LEARNING_RATE,
            )
            return run_crowd_trials(
                model_factory, train, test, config, num_trials=2
            ).tail_error()

        assert tail(20) < tail(1) - 0.1

    def test_central_sgd_with_perturbed_inputs_useless(self, data):
        train, test = data
        trainer = CentralizedSGDTrainer(
            model_factory(),
            InverseSqrtRate(LEARNING_RATE),
            batch_size=10,
            budget=CentralizedBudget.even_split(self.EPSILON),
        )
        result = trainer.fit(train, test, np.random.default_rng(0), num_passes=2)
        assert result.curve.tail_error() > 0.6  # paper shows ~0.9


class TestFig6Shape:
    """Delays hurt b=1 but barely touch b=20."""

    EPSILON = 10.0

    def _tail(self, data, batch_size, delay_multiples, num_trials=2):
        from repro.network import LinkDelays

        train, test = data
        config = SimulationConfig(
            num_devices=50,
            batch_size=batch_size,
            epsilon=self.EPSILON,
            num_passes=4,
            learning_rate_constant=LEARNING_RATE,
        )
        tau = config.delay_in_sample_units(delay_multiples)
        config = SimulationConfig(
            num_devices=50,
            batch_size=batch_size,
            epsilon=self.EPSILON,
            num_passes=4,
            learning_rate_constant=LEARNING_RATE,
            link_delays=LinkDelays.uniform(tau),
        )
        return run_crowd_trials(
            model_factory, train, test, config, num_trials=num_trials
        ).tail_error()

    def test_large_delay_tolerable_with_b20(self, data):
        quiet = self._tail(data, batch_size=20, delay_multiples=1)
        loud = self._tail(data, batch_size=20, delay_multiples=1000)
        assert loud <= quiet + 0.12

    def test_b20_with_huge_delay_still_learns(self, data):
        assert self._tail(data, batch_size=20, delay_multiples=1000) < 0.5
