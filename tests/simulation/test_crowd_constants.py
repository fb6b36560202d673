"""Crowd-constant round state lives once, and a finished run is freed.

Structural gates, no timers: a simulator's mechanism constructions scale
with the distinct realized minibatch sizes, not with the crowd; every
device holds the same config and calibration objects, from any thread;
and ``del`` alone (no cycle collector) frees a finished simulator and its
devices.
"""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.config import DeviceConfig
from repro.core.device import Device
from repro.core.sanitizer import CheckinSanitizer
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.privacy import DiscreteLaplaceMechanism, LaplaceMechanism
from repro.simulation import CrowdSimulator, SimulationConfig

NUM_DEVICES = 200


def build(batch_size, epsilon, delayed=False, num_devices=NUM_DEVICES, seed=0):
    config = SimulationConfig(num_devices=num_devices, batch_size=batch_size,
                              epsilon=epsilon, num_snapshots=2)
    if delayed:
        tau = config.delay_in_sample_units(200.0)
        config = SimulationConfig(
            num_devices=num_devices, batch_size=batch_size, epsilon=epsilon,
            num_snapshots=2, link_delays=LinkDelays.uniform(tau),
        )
    train, test = make_mnist_like(
        num_train=num_devices * batch_size * 2, num_test=50, seed=seed)
    parts = iid_partition(train, num_devices, np.random.default_rng(seed))
    return CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test, config, seed=seed)


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``__init__`` calls per mechanism class."""
    counts = {}
    for cls in (LaplaceMechanism, DiscreteLaplaceMechanism):
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] = counts.get(_cls, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.fixture
def realized_sizes(monkeypatch):
    """The distinct ``num_samples`` passed to ``sanitize``."""
    seen = set()
    sanitize = CheckinSanitizer.sanitize

    def recording(self, gradient, errors, labels, num_samples):
        seen.add(num_samples)
        return sanitize(self, gradient, errors, labels, num_samples)

    monkeypatch.setattr(CheckinSanitizer, "sanitize", recording)
    return seen


class TestColdStartGate:
    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    @pytest.mark.parametrize("batch_size,delayed", [(1, False), (20, False), (20, True)])
    def test_simulator_calibrates_per_batch_size_not_per_device(
        self, constructions, realized_sizes, batch_size, delayed, epsilon
    ):
        simulator = build(batch_size, epsilon, delayed)
        trace = simulator.run()
        assert trace.total_samples_consumed >= NUM_DEVICES * batch_size
        assert realized_sizes and len(realized_sizes) < NUM_DEVICES / 4
        assert constructions[LaplaceMechanism] == len(realized_sizes)
        assert constructions[DiscreteLaplaceMechanism] == 2

    def test_every_actor_shares_the_crowd_constants(self):
        simulator = build(batch_size=1, epsilon=1.0, num_devices=20)
        devices = [actor.device for actor in simulator._actors]
        assert len({id(device.config) for device in devices}) == 1
        assert len({id(device._sanitizer._calibration) for device in devices}) == 1


class TestSharedAcrossThreads:
    """Gateway and HTTP clients build and drive devices from several
    threads: a race on the shared calibration may only recompute an entry,
    never change a check-in."""

    def test_concurrent_first_rounds_match_the_serial_crowd(self):
        num_threads, per_thread, sizes = 8, 25, (1, 2, 3, 5, 8)
        features = np.full((8, 4), 0.1)
        labels = np.arange(8) % 3
        weights = np.zeros(12)

        def rounds(model, device_id):
            config = DeviceConfig.default(batch_size=1, num_classes=3, epsilon=1.0)
            device = Device(device_id, model, config, "t",
                            np.random.default_rng(device_id))
            out = []
            for size in sizes:
                device.observe_batch(features[:size], labels[:size])
                message = device.complete_checkout(weights, 0).message
                out.append((message.gradient.tobytes(), message.noisy_error_count,
                            message.noisy_label_counts.tobytes()))
            return out, device.accountant.spend()

        serial_model = MulticlassLogisticRegression(4, 3)
        expected = [rounds(serial_model, d) for d in range(num_threads * per_thread)]

        shared_model = MulticlassLogisticRegression(4, 3)
        results = {}
        start = threading.Barrier(num_threads)

        def worker(index):
            start.wait(timeout=10)
            for device_id in range(index * per_thread, (index + 1) * per_thread):
                results[device_id] = rounds(shared_model, device_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [results[d] for d in range(len(expected))] == expected


class TestFreedByRefcount:
    """``bench/``'s two sim arms: a finished run must not wait for gen 2."""

    @pytest.mark.parametrize("batch_size,delayed", [(1, False), (20, True)])
    def test_del_frees_simulator_and_devices(self, batch_size, delayed):
        gc.collect()
        gc.disable()
        try:
            simulator = build(batch_size, 1.0, delayed, num_devices=20)
            assert (simulator._actors[0].link is not None) == delayed
            simulator.run()
            simulator_ref = weakref.ref(simulator)
            device_ref = weakref.ref(simulator._actors[0].device)
            del simulator
            assert simulator_ref() is None
            assert device_ref() is None
        finally:
            gc.enable()
