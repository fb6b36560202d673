"""Shard math: stable hashing and cross-shard merges."""

import numpy as np
import pytest

from repro.core.auth import DeviceRegistry
from repro.core.protocol import CheckoutRequest
from repro.core.sharding import (
    ShardMergeError,
    merge_status_counts,
    stable_device_hash,
)
from repro.shard import ShardRouter
from repro.utils.exceptions import AuthenticationError

from tests.persist.conftest import make_core, make_message


class TestStableDeviceHash:
    def test_deterministic(self):
        assert stable_device_hash(7) == stable_device_hash(7)

    def test_known_value(self):
        # Pinned: a changed constant would silently re-shard every
        # deployed state dir.
        assert stable_device_hash(1) == 2654435761 & 0xFFFFFFFF
        assert stable_device_hash(0) == 0

    def test_fits_32_bits(self):
        for device_id in (1, 12345, 2**31 - 1, 2**40):
            assert 0 <= stable_device_hash(device_id) < 2**32

    def test_spreads_sequential_ids(self):
        # Sequential ids must not all land in one residue class.
        shards = {stable_device_hash(d) % 4 for d in range(64)}
        assert shards == {0, 1, 2, 3}


def core_status(core):
    """The ``/v1/status`` counter fields of one shard's core."""
    return {
        "iteration": core.iteration,
        "stopped": core.stopped,
        "stop_reason": core.stopping_decision().reason.value,
        "checkouts_served": core.checkouts_served,
        "rejected_messages": core.rejected_messages,
        "registered_devices": core.registry.num_registered,
        "num_parameters": core.model.num_parameters,
        "duplicates_suppressed": core.duplicates_suppressed,
    }


def enrolled_tier(num_shards=2, devices=range(16)):
    """Cores that each enroll only the devices routed to them — what
    ``repro-serve --shard-index k --register M`` does."""
    router = ShardRouter(num_shards)
    cores = [make_core(registry=DeviceRegistry(server_key="k"))
             for _ in range(num_shards)]
    tokens = {d: cores[router.shard_of(d)].register_device(d) for d in devices}
    return router, cores, tokens


class TestMergeCounters:
    """Formerly ``merge_counters`` over ``counters_state()`` dicts; the
    crowd-wide view is ``merge_status_counts``, and ledger disjointness
    is enforced up front by each shard enrolling only what it owns."""

    def test_sums_and_unions(self):
        rng = np.random.default_rng(7)
        router, cores, tokens = enrolled_tier()
        applied = []
        for device_id in (0, 1, 2, 3, 4):
            core = cores[router.shard_of(device_id)]
            core.handle_checkout(CheckoutRequest(device_id, tokens[device_id], 0.0))
            message = make_message(core, device_id, tokens[device_id], rng, seq=0)
            assert core.handle_checkins([message]) != [None]
            applied.append(message)
        # One replay (suppressed) and one forged token (rejected), each
        # at the shard that owns the device.
        replayed = applied[0]
        owner = cores[router.shard_of(replayed.device_id)]
        assert owner.handle_checkins([replayed])[0].checkin_seq == 0
        assert owner.handle_checkins(
            [make_message(owner, replayed.device_id, "forged", rng, seq=1)]
        ) == [None]
        merged = merge_status_counts([core_status(core) for core in cores])
        assert merged["iteration"] == 5
        assert merged["checkouts_served"] == 5
        assert merged["rejected_messages"] == 1
        assert merged["duplicates_suppressed"] == 1
        assert merged["registered_devices"] == 16
        # Each field is the plain sum of the per-shard values, and the
        # per-shard dedupe ledgers partition the devices that checked in.
        assert all(core.iteration > 0 for core in cores)
        ledgers = [set(core.counters_state()["applied_seqs"]) for core in cores]
        assert ledgers[0].isdisjoint(ledgers[1])
        assert ledgers[0] | ledgers[1] == {"0", "1", "2", "3", "4"}

    def test_ledger_collision_raises(self):
        # A device cannot enter two shards' ledgers: the shard that does
        # not own it never enrolled it, so a misrouted check-in — even
        # with the device's genuine token — is rejected, not applied.
        rng = np.random.default_rng(8)
        router, cores, tokens = enrolled_tier()
        device_id = 5
        owner = cores[router.shard_of(device_id)]
        other = cores[1 - router.shard_of(device_id)]
        assert not other.registry.is_registered(device_id)
        with pytest.raises(AuthenticationError, match="unknown device"):
            other.handle_checkout(CheckoutRequest(device_id, tokens[device_id], 0.0))
        message = make_message(other, device_id, tokens[device_id], rng, seq=0)
        assert other.handle_checkins([message]) == [None]
        assert other.iteration == 0 and other.rejected_messages == 2
        assert other.counters_state()["applied_seqs"] == {}
        assert owner.handle_checkins([message])[0] is not None
        assert list(owner.counters_state()["applied_seqs"]) == [str(device_id)]

    def test_empty_input_is_zero(self):
        # Shards that have served nothing merge to a zeroed, running task.
        _, cores, _ = enrolled_tier(num_shards=3, devices=())
        merged = merge_status_counts([core_status(core) for core in cores])
        assert merged == {
            "iteration": 0, "checkouts_served": 0, "rejected_messages": 0,
            "registered_devices": 0, "duplicates_suppressed": 0,
            "num_parameters": cores[0].model.num_parameters,
            "stopped": False, "stop_reason": "running",
        }


def status(iteration=0, stopped=False, reason="running", devices=0,
           num_parameters=8, dups=0):
    return {
        "iteration": iteration,
        "stopped": stopped,
        "stop_reason": reason,
        "checkouts_served": iteration,
        "rejected_messages": 0,
        "registered_devices": devices,
        "num_parameters": num_parameters,
        "duplicates_suppressed": dups,
    }


class TestMergeStatusCounts:
    def test_counters_sum(self):
        merged = merge_status_counts([
            status(iteration=10, devices=2, dups=1),
            status(iteration=7, devices=3, dups=4),
        ])
        assert merged["iteration"] == 17
        assert merged["registered_devices"] == 5
        assert merged["duplicates_suppressed"] == 5
        assert merged["num_parameters"] == 8

    def test_running_while_any_shard_lives(self):
        merged = merge_status_counts([
            status(stopped=True, reason="max_iterations"),
            status(stopped=False),
        ])
        assert merged["stopped"] is False
        assert merged["stop_reason"] == "running"

    def test_stopped_only_when_all_stopped(self):
        merged = merge_status_counts([
            status(stopped=True, reason="target_error"),
            status(stopped=True, reason="max_iterations"),
        ])
        assert merged["stopped"] is True
        assert merged["stop_reason"] == "target_error"  # first stopped wins

    def test_shape_disagreement_raises(self):
        with pytest.raises(ShardMergeError, match="num_parameters"):
            merge_status_counts([
                status(num_parameters=8), status(num_parameters=9),
            ])

    def test_empty_raises(self):
        with pytest.raises(ShardMergeError, match="empty"):
            merge_status_counts([])
