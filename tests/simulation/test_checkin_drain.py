"""Check-in delivery through the event queue: one event per message.

These tests pin what same-timestamp check-in deliveries do at the queue
level (one event each, insertion order, interleaved events in position)
against the same messages applied directly, one ``_on_checkin_arrival``
per message.  The same-timestamp heap drain these tests used to A/B is
gone (no shipped caller reached it); the full-run cases pin the traces
it produced.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.protocol import CheckinMessage
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network.latency import ConstantDelay, LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

from tests.simulation._golden import trace_fingerprint

NUM_DEVICES = 6
DIM, CLASSES = 50, 10


@pytest.fixture(scope="module")
def data():
    train, test = make_mnist_like(num_train=180, num_test=50, seed=0)
    return iid_partition(train, NUM_DEVICES, np.random.default_rng(0)), test


def make_sim(data, **config_extra):
    parts, test = data
    config = SimulationConfig(
        num_devices=NUM_DEVICES,
        batch_size=3,
        num_snapshots=6,
        link_delays=LinkDelays.uniform(0.4),
        transport="simulated",
        **config_extra,
    )
    return CrowdSimulator(
        MulticlassLogisticRegression(DIM, CLASSES), parts, test, config, seed=11,
    )


def craft_messages(sim, count, num_samples=2, rng_seed=5):
    """Valid check-in messages for ``sim``'s registered devices."""
    rng = np.random.default_rng(rng_seed)
    num_parameters = sim._model.num_parameters
    messages = []
    for k in range(count):
        actor = sim._actors[k % NUM_DEVICES]
        messages.append(CheckinMessage(
            device_id=actor.device.device_id,
            token=actor.device.token,
            gradient=rng.normal(size=num_parameters),
            num_samples=num_samples,
            noisy_error_count=int(rng.integers(0, num_samples + 1)),
            noisy_label_counts=rng.integers(
                0, num_samples + 1, size=CLASSES).astype(np.int64),
            checkout_iteration=0,
        ))
    return messages


def drained_state(sim):
    """Everything the check-in path mutates (devices are untouched)."""
    return {
        "parameters": sim.core.parameters,
        "iteration": sim.core.iteration,
        "rejected": sim.core.rejected_messages,
        "staleness": list(sim._staleness),
        "checkins_delivered": sim._comm.checkins_delivered,
        "samples_consumed": sim._samples_consumed,
        "snapshot_iters": list(sim._snapshot_iters),
        "snapshot_errors": list(sim._snapshot_errors),
        "next_snapshot": sim._next_snapshot,
        "stopped_reason": sim._stopped_reason,
    }


def assert_same_state(batched, sequential):
    got, want = drained_state(batched), drained_state(sequential)
    assert np.array_equal(got.pop("parameters"), want.pop("parameters"))
    assert got == want


class TestQueueLevelDrain:
    """End to end through the heap: one event each, in insertion order."""

    def run_scheduled(self, data, interleave=False):
        sim = make_sim(data)
        messages = craft_messages(sim, 6)
        observed = []

        def foreign_probe():
            # Reads server state at *fire* time: proves the interleaved
            # event really ran between the two half-runs.
            observed.append(("foreign", sim.core.iteration))

        for k, message in enumerate(messages):
            if interleave and k == 3:
                # A foreign event between two check-in deliveries at the
                # same timestamp: it must fire in exactly this position.
                sim._queue.schedule(1.0, foreign_probe)
            sim._queue.schedule(
                1.0, sim._on_checkin_handler, args=(sim._actors[0], message),
            )
        fired_iterations = []
        while sim._queue.step():
            fired_iterations.append(sim.core.iteration)
        return sim, messages, observed, fired_iterations

    def batch_applied(self, data, messages):
        """The state one ``_on_checkin_arrival`` per message produces."""
        batched = make_sim(data)
        for message in messages:
            batched._on_checkin_arrival(None, message)
        return batched

    def test_same_timestamp_run_is_coalesced(self, data):
        sim, messages, _, fired_iterations = self.run_scheduled(data)
        # One event per delivery, each applying exactly one check-in.
        assert sim.events_fired == 6
        assert fired_iterations == [1, 2, 3, 4, 5, 6]
        assert sim._queue.pending == 0
        assert_same_state(self.batch_applied(data, messages), sim)

    def test_interleaved_event_breaks_the_run_in_order(self, data):
        sim, messages, observed, fired_iterations = self.run_scheduled(
            data, interleave=True)
        # The foreign event observed the server mid-run: 3 check-ins
        # applied before it, and it applied none itself.
        assert observed == [("foreign", 3)]
        assert sim.events_fired == 7
        assert fired_iterations == [1, 2, 3, 3, 4, 5, 6]
        assert_same_state(self.batch_applied(data, messages), sim)


def _trace_digest(trace) -> str:
    fingerprint = trace_fingerprint(trace)
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()


class TestFullRunEquivalence:
    """Whole simulations reproduce the traces the parent commit (PR 16)
    recorded with the same-timestamp drain on."""

    #: (sha256 of the trace fingerprint, events fired), per parametrized
    #: case, recorded at commit 6e81cbb with ``coalesce_checkins=True``.
    RECORDED = [
        ("3fb902c7e0a8103413ea9c247fb883869b232d10c522138ef8f5bae1eda0434e", 240),
        ("1768f9f631ddd926a2e612cabe342738989f48128c123fdfd462e6bdb594c96e", 240),
        ("165fd3720e5c0999fed9e8058ce494c968c3cb6e03685bf1b6d5f3b6c12c1d05", 126),
        ("32008ce8a430fa4d817ffa7e3b305523fb6ac3a7b26c04c2b0c2bb8d2dd70c2a", 142),
    ]
    CASES = [
        dict(),
        dict(link_delays=LinkDelays(
            ConstantDelay(0.37), ConstantDelay(0.61), ConstantDelay(0.23))),
        dict(max_iterations=30),
        dict(target_error=0.88),
    ]

    @pytest.mark.parametrize("overrides", CASES)
    def test_coalesce_flag_preserves_traces(self, data, overrides):
        parts, test = data
        config = SimulationConfig(
            num_devices=NUM_DEVICES, batch_size=3, num_snapshots=6,
            link_delays=overrides.get(
                "link_delays", LinkDelays.uniform(0.4)),
            transport="simulated",
            **{k: v for k, v in overrides.items() if k != "link_delays"},
        )
        simulator = CrowdSimulator(
            MulticlassLogisticRegression(DIM, CLASSES), parts, test,
            config, seed=11,
        )
        trace = simulator.run()
        digest, events_fired = self.RECORDED[self.CASES.index(overrides)]
        assert simulator.events_fired == events_fired, str(overrides)
        assert _trace_digest(trace) == digest, str(overrides)
