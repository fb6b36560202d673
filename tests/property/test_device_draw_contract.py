"""A device check-in is three draws from the device's own generator, in
one order.

Every recorded golden trace rests on that order: Laplace noise on the d
gradient coordinates, then the error count's discrete-Laplace pair, then
the C label counts' pairs, with a level of ε = ∞ drawing nothing.  A twin
generator seeded alike replays the order on the same buffered batch,
through the separate oracles and the array form of the sampler; after
each ``Device.complete_checkout`` the released gradient, error count and
label counts must equal the twin's, and both generators must stand in
the same state.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeviceConfig
from repro.core.device import Device
from repro.models import MulticlassLogisticRegression
from repro.privacy.budget import PrivacyBudget
from repro.privacy.discrete_laplace import discrete_laplace_noise, geometric_success
from repro.privacy.laplace import LaplaceMechanism

NUM_FEATURES = 6

levels = st.one_of(st.just(math.inf), st.floats(min_value=0.05, max_value=50.0))


def twin_release(model, twin, budget, parameters, features, labels):
    """The expected check-in: exact statistics, then the twin's draws."""
    batch_size = features.shape[0]
    gradient = model.gradient(parameters, features, labels)
    error_count = int(np.sum(model.prediction_errors(parameters, features, labels)))
    label_counts = np.bincount(labels, minlength=model.num_classes)
    if not math.isinf(budget.epsilon_gradient):
        scale = LaplaceMechanism(
            budget.epsilon_gradient, model.gradient_sensitivity(batch_size)
        ).scale
        gradient = gradient + twin.laplace(0.0, scale, gradient.shape[0])
    if not math.isinf(budget.epsilon_error):
        success = geometric_success(budget.epsilon_error)
        error_count += int(discrete_laplace_noise(success, twin, 1)[0])
    if not math.isinf(budget.epsilon_label):
        success = geometric_success(budget.epsilon_label)
        label_counts = label_counts + discrete_laplace_noise(
            success, twin, model.num_classes
        )
    return gradient, error_count, label_counts


@given(
    batch_size=st.integers(1, 20),
    num_classes=st.integers(2, 10),
    epsilon_gradient=levels,
    epsilon_error=levels,
    epsilon_label=levels,
    rounds=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_checkins_match_a_twin_generator(
    batch_size, num_classes, epsilon_gradient, epsilon_error, epsilon_label,
    rounds, seed,
):
    model = MulticlassLogisticRegression(NUM_FEATURES, num_classes)
    budget = PrivacyBudget(epsilon_gradient, epsilon_error, epsilon_label, num_classes)
    config = DeviceConfig(
        batch_size=batch_size, buffer_capacity=batch_size, budget=budget
    )
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    device = Device(0, model, config, token="t", rng=rng)
    data = np.random.default_rng([seed, 1])
    for iteration in range(rounds):
        parameters = data.normal(size=model.num_parameters)
        features = data.random((batch_size, NUM_FEATURES))
        features /= features.sum(axis=1, keepdims=True)
        labels = data.integers(0, num_classes, batch_size)
        device.observe_batch(features, labels)
        message = device.complete_checkout(parameters, iteration).message

        gradient, error_count, label_counts = twin_release(
            model, twin, budget, parameters, features, labels
        )
        assert message.gradient.tobytes() == gradient.tobytes()
        assert type(message.noisy_error_count) is int
        assert message.noisy_error_count == error_count
        assert message.noisy_label_counts.dtype == np.int64
        assert np.array_equal(message.noisy_label_counts, label_counts)
        assert rng.bit_generator.state == twin.bit_generator.state
