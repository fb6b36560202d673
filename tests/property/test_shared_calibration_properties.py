"""Property tests: sharing the sanitizer calibration changes no check-in.

Devices built on one model object share one ``SanitizerCalibration``
(keyed on the model's identity); devices built on equal-but-distinct
model objects each get a private one.  For any interleaving of realized
minibatch sizes across K devices, both crowds must emit exactly the same
check-ins — gradient bytes, counts — and book the same accountant spend
from the same seeds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeviceConfig
from repro.core.device import Device
from repro.models import MulticlassLogisticRegression
from repro.privacy.budget import split_budget

NUM_FEATURES = 4
NUM_CLASSES = 3
CAPACITY = 8


def _make_crowd(num_devices, epsilon, seed, shared):
    shared_model = MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)
    devices = []
    for index in range(num_devices):
        model = shared_model if shared else MulticlassLogisticRegression(
            NUM_FEATURES, NUM_CLASSES)
        config = DeviceConfig(
            batch_size=1, buffer_capacity=CAPACITY,
            budget=split_budget(epsilon, NUM_CLASSES),
        )
        devices.append(Device(index, model, config, token="t",
                              rng=np.random.default_rng([seed, index])))
    return devices


class TestSharedCalibrationEquivalence:
    @given(
        num_devices=st.integers(1, 4),
        plan=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, CAPACITY)),
            min_size=1, max_size=12,
        ),
        epsilon=st.sampled_from([0.5, 5.0, math.inf]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_and_private_crowds_emit_identical_checkins(
        self, num_devices, plan, epsilon, seed
    ):
        shared = _make_crowd(num_devices, epsilon, seed, True)
        private = _make_crowd(num_devices, epsilon, seed, False)
        calibrations = {id(d._sanitizer._calibration) for d in shared}
        assert len(calibrations) == 1
        assert len({id(d._sanitizer._calibration) for d in private}) == num_devices

        data_rng = np.random.default_rng(seed)
        weights = data_rng.normal(size=NUM_FEATURES * NUM_CLASSES)
        for step, (index, num_samples) in enumerate(plan):
            index %= num_devices
            features = data_rng.normal(size=(num_samples, NUM_FEATURES)) / 16
            labels = data_rng.integers(0, NUM_CLASSES, size=num_samples)
            messages = []
            for device in (shared[index], private[index]):
                device.observe_batch(features, labels)
                messages.append(device.complete_checkout(weights, step).message)
            ours, theirs = messages
            assert ours.gradient.tobytes() == theirs.gradient.tobytes()
            assert ours.num_samples == theirs.num_samples == num_samples
            assert ours.noisy_error_count == theirs.noisy_error_count
            assert (ours.noisy_label_counts.tobytes()
                    == theirs.noisy_label_counts.tobytes())
            assert ours.noisy_label_counts.dtype == np.int64
        for ours, theirs in zip(shared, private):
            assert ours.accountant.spend() == theirs.accountant.spend()
