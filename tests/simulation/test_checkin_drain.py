"""Same-timestamp check-in batch drain: bit-identical to event dispatch.

With τ > 0 several check-ins can land on the same arrival timestamp; the
simulator drains such a contiguous run from the heap and applies it via
``ServerCore.handle_checkins`` segments.  These tests prove the drained
path reproduces the sequential per-event path *exactly* — including
snapshot placement, staleness bookkeeping, the max-iterations guard, and
ρ-target stops — plus end-to-end queue behaviour (contiguity, ordering
around interleaved events, the ``coalesce_checkins`` switch).
"""

import numpy as np
import pytest

from repro.core.protocol import CheckinMessage
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import assert_traces_identical
from repro.models import MulticlassLogisticRegression
from repro.network.latency import ConstantDelay, LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

NUM_DEVICES = 6
DIM, CLASSES = 50, 10


@pytest.fixture(scope="module")
def data():
    train, test = make_mnist_like(num_train=180, num_test=50, seed=0)
    return iid_partition(train, NUM_DEVICES, np.random.default_rng(0)), test


def make_sim(data, coalesce, **config_extra):
    parts, test = data
    config = SimulationConfig(
        num_devices=NUM_DEVICES,
        batch_size=3,
        num_snapshots=6,
        link_delays=LinkDelays.uniform(0.4),
        transport="simulated",
        coalesce_checkins=coalesce,
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
        "grid_pos": sim._grid_pos,
        "stopped_reason": sim._stopped_reason,
    }


def assert_same_state(batched, sequential):
    got, want = drained_state(batched), drained_state(sequential)
    assert np.array_equal(got.pop("parameters"), want.pop("parameters"))
    assert got == want


class TestApplyRunEquivalence:
    """White-box: _apply_checkin_run vs one _on_checkin_arrival per message."""

    def apply_both_ways(self, data, messages, **config_extra):
        batched = make_sim(data, coalesce=True, **config_extra)
        sequential = make_sim(data, coalesce=False, **config_extra)
        batched._apply_checkin_run(messages)
        for message in messages:
            sequential._on_checkin_arrival(None, message)
        assert_same_state(batched, sequential)
        return batched

    def test_plain_run_single_segment(self, data):
        self.apply_both_ways(data, [])
        batched = self.apply_both_ways(
            data, craft_messages(make_sim(data, True), 8))
        assert batched.core.iteration == 8

    def test_snapshot_crossings_split_segments(self, data):
        # 180 samples total, 6 snapshots -> grid points every ~30 samples;
        # 25 messages x 2 samples cross the grid mid-run, so the error
        # snapshot must be taken at intermediate parameters.
        sim = make_sim(data, True)
        messages = craft_messages(sim, 25)
        batched = self.apply_both_ways(data, messages)
        assert batched._grid_pos > 0
        assert batched._snapshot_iters  # crossings actually happened

    def test_max_iterations_guard_drops_tail(self, data):
        messages = craft_messages(make_sim(data, True), 10)
        batched = self.apply_both_ways(data, messages, max_iterations=4)
        assert batched.core.iteration == 4
        assert batched._stopped_reason == "max_iterations"
        # The guard drops post-stop deliveries *before* the core sees
        # them — identical rejected-message accounting both ways (0).
        assert batched.core.rejected_messages == 0

    def test_target_error_stop_mid_run(self, data):
        # All-zero noisy error counts drive the DP estimate to 0, so the
        # rho-stop trips as soon as min_samples_for_error_stop (100) is
        # counted — mid-run at 40 x 3 = 120 samples.
        sim = make_sim(data, True, target_error=0.5)
        messages = craft_messages(sim, 40, num_samples=3)
        zeroed = [
            CheckinMessage(
                device_id=m.device_id, token=m.token, gradient=m.gradient,
                num_samples=m.num_samples, noisy_error_count=0,
                noisy_label_counts=m.noisy_label_counts,
                checkout_iteration=m.checkout_iteration,
            )
            for m in messages
        ]
        batched = self.apply_both_ways(data, zeroed, target_error=0.5)
        assert batched._stopped_reason == "target_error"
        assert 0 < batched.core.iteration < len(zeroed)


class TestQueueLevelDrain:
    """End to end through the heap: contiguity, ordering, the counter."""

    def run_scheduled(self, data, coalesce, interleave=False):
        sim = make_sim(data, coalesce)
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
        while sim._queue.step():
            pass
        return sim, observed

    def test_same_timestamp_run_is_coalesced(self, data):
        batched, _ = self.run_scheduled(data, coalesce=True)
        sequential, _ = self.run_scheduled(data, coalesce=False)
        assert batched.coalesced_checkins == 5
        assert sequential.coalesced_checkins == 0
        assert_same_state(batched, sequential)
        # Drained deliveries still count as fired events.
        assert batched.events_fired == sequential.events_fired

    def test_interleaved_event_breaks_the_run_in_order(self, data):
        batched, observed = self.run_scheduled(data, coalesce=True, interleave=True)
        sequential, observed_seq = self.run_scheduled(
            data, coalesce=False, interleave=True)
        # The foreign event observed the server mid-run at the same
        # iteration count on both paths: 3 check-ins applied before it.
        assert observed == observed_seq == [("foreign", 3)]
        assert batched.coalesced_checkins == 2 + 2  # runs of 3 either side
        assert_same_state(batched, sequential)


class TestFullRunEquivalence:
    """Whole simulations with the knob on vs off stay bit-identical."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(link_delays=LinkDelays(
                ConstantDelay(0.37), ConstantDelay(0.61), ConstantDelay(0.23))),
            dict(max_iterations=30),
            dict(target_error=0.88),
        ],
    )
    def test_coalesce_flag_preserves_traces(self, data, overrides):
        parts, test = data
        traces = []
        for coalesce in (True, False):
            config = SimulationConfig(
                num_devices=NUM_DEVICES, batch_size=3, num_snapshots=6,
                link_delays=overrides.get(
                    "link_delays", LinkDelays.uniform(0.4)),
                transport="simulated", coalesce_checkins=coalesce,
                **{k: v for k, v in overrides.items() if k != "link_delays"},
            )
            traces.append(CrowdSimulator(
                MulticlassLogisticRegression(DIM, CLASSES), parts, test,
                config, seed=11,
            ).run())
        assert_traces_identical(traces[0], traces[1], context=str(overrides))
