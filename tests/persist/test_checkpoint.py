"""Checkpoint policy, atomic snapshot store, and torn-file fallback."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.persist import (
    STATE_FORMAT,
    Checkpointer,
    CheckpointPolicy,
    SnapshotError,
    SnapshotStore,
    canonical_json,
    restore_core,
    snapshot_checksum,
    snapshot_core,
)

from tests.persist.conftest import core_states_equal, make_core, make_message, make_model


def advance(core, tokens, rng, updates=1):
    for _ in range(updates):
        device_id = core.iteration % len(tokens)
        core.handle_checkin(make_message(core, device_id, tokens[device_id], rng))


@pytest.fixture
def core_and_tokens(traffic_rng):
    core = make_core()
    tokens = {i: core.register_device(i) for i in range(2)}
    return core, tokens


# --------------------------------------------------------------------- #
# policy                                                                #
# --------------------------------------------------------------------- #


def test_policy_never_fires_without_new_updates():
    policy = CheckpointPolicy(every_n_updates=1, every_seconds=0.001)
    assert not policy.due(iteration=5, last_iteration=5, now=100.0, last_time=0.0)


def test_policy_count_trigger():
    policy = CheckpointPolicy(every_n_updates=3, every_seconds=None)
    assert not policy.due(5, 3, now=0.0, last_time=0.0)
    assert policy.due(6, 3, now=0.0, last_time=0.0)


def test_policy_time_trigger():
    policy = CheckpointPolicy(every_n_updates=None, every_seconds=10.0)
    assert not policy.due(6, 5, now=9.0, last_time=0.0)
    assert policy.due(6, 5, now=10.0, last_time=0.0)


def test_policy_fully_disabled_only_forced():
    policy = CheckpointPolicy(every_n_updates=None, every_seconds=None)
    assert not policy.due(100, 0, now=1e9, last_time=0.0)


@pytest.mark.parametrize("kwargs", [
    {"every_n_updates": 0},
    {"every_n_updates": -2},
    {"every_seconds": 0.0},
    {"every_seconds": -1.0},
])
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        CheckpointPolicy(**kwargs)


# --------------------------------------------------------------------- #
# store                                                                 #
# --------------------------------------------------------------------- #


def test_store_roundtrip(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    advance(core, tokens, traffic_rng, updates=3)
    store = SnapshotStore(str(tmp_path / "state"))
    path = store.write(snapshot_core(core))
    assert os.path.basename(path) == "snapshot-000000000003.json"
    loaded, loaded_path = store.load_latest()
    assert loaded_path == path
    assert core_states_equal(core, restore_core(loaded, make_model()))


def test_store_writes_the_checksummed_bytes_and_still_reads_pretty_files(
    tmp_path, core_and_tokens, traffic_rng
):
    core, tokens = core_and_tokens
    advance(core, tokens, traffic_rng, updates=2)
    store = SnapshotStore(str(tmp_path / "state"))
    path = store.write(snapshot_core(core))
    with open(path) as handle:
        written = handle.read()
    # One serialization: the body on disk is byte-for-byte the canonical
    # form the checksum was computed over.
    assert canonical_json(snapshot_core(core)) in written
    payload = json.loads(written)
    assert payload["checksum"] == snapshot_checksum(payload["snapshot"])
    assert payload["checksum"] == hashlib.sha256(
        canonical_json(snapshot_core(core)).encode("utf-8")).hexdigest()
    # A file from before this format — the same payload pretty-printed
    # with sorted keys — still loads: the checksum is re-derived from
    # the parsed body, not from the bytes.
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    assert os.path.getsize(path) > len(written)
    loaded, _ = store.load_latest()
    assert core_states_equal(core, restore_core(loaded, make_model()))


def test_store_marker_written_and_checked(tmp_path):
    state_dir = tmp_path / "state"
    SnapshotStore(str(state_dir))
    with open(state_dir / "state.json") as handle:
        assert json.load(handle) == {"format": STATE_FORMAT}
    # A future-format dir is refused, not reinterpreted.
    with open(state_dir / "state.json", "w") as handle:
        json.dump({"format": STATE_FORMAT + 1}, handle)
    with pytest.raises(SnapshotError, match="format"):
        SnapshotStore(str(state_dir))


def test_store_empty_returns_none(tmp_path):
    assert SnapshotStore(str(tmp_path / "state")).load_latest() is None


def test_store_retention_prunes_oldest(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    store = SnapshotStore(str(tmp_path / "state"), retain=2)
    for _ in range(5):
        advance(core, tokens, traffic_rng)
        store.write(snapshot_core(core))
    names = [os.path.basename(p) for p in store.snapshot_paths()]
    assert names == ["snapshot-000000000005.json", "snapshot-000000000004.json"]


def test_store_same_iteration_overwrites(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    store = SnapshotStore(str(tmp_path / "state"))
    store.write(snapshot_core(core))
    core.register_device(7)  # state change that does not advance t
    store.write(snapshot_core(core))
    assert len(store.snapshot_paths()) == 1
    loaded, _ = store.load_latest()
    assert core_states_equal(core, restore_core(loaded, make_model()))


def test_torn_newest_falls_back_to_previous(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    store = SnapshotStore(str(tmp_path / "state"))
    advance(core, tokens, traffic_rng)
    store.write(snapshot_core(core))
    previous_iteration = core.iteration
    advance(core, tokens, traffic_rng)
    newest = store.write(snapshot_core(core))
    # Tear the newest file mid-write (truncated JSON).
    with open(newest) as handle:
        content = handle.read()
    with open(newest, "w") as handle:
        handle.write(content[: len(content) // 2])
    loaded, path = store.load_latest()
    assert path != newest
    assert restore_core(loaded, make_model()).iteration == previous_iteration


def test_checksum_mismatch_falls_back(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    store = SnapshotStore(str(tmp_path / "state"))
    advance(core, tokens, traffic_rng)
    store.write(snapshot_core(core))
    advance(core, tokens, traffic_rng)
    newest = store.write(snapshot_core(core))
    # Valid JSON whose bits don't add up: flip the iteration in place.
    with open(newest) as handle:
        payload = json.load(handle)
    payload["snapshot"]["optimizer"]["iteration"] += 1
    with open(newest, "w") as handle:
        json.dump(payload, handle)
    loaded, path = store.load_latest()
    assert path != newest
    assert restore_core(loaded, make_model()).iteration == 1


def test_all_garbage_raises_instead_of_fresh_start(tmp_path):
    store = SnapshotStore(str(tmp_path / "state"))
    garbage = os.path.join(store.snapshots_dir, "snapshot-000000000001.json")
    with open(garbage, "w") as handle:
        handle.write("{ not json")
    with pytest.raises(SnapshotError, match="no valid snapshot"):
        store.load_latest()


def test_newer_version_snapshot_refuses_fallback(tmp_path, core_and_tokens):
    core, _ = core_and_tokens
    store = SnapshotStore(str(tmp_path / "state"))
    store.write(snapshot_core(core))
    from repro.persist import SNAPSHOT_VERSION, snapshot_checksum

    future = snapshot_core(core)
    future["snapshot_version"] = SNAPSHOT_VERSION + 1
    future["optimizer"]["iteration"] = 9
    path = os.path.join(store.snapshots_dir, "snapshot-000000000009.json")
    with open(path, "w") as handle:
        json.dump({"checksum": snapshot_checksum(future), "snapshot": future},
                  handle)
    # Falling back past a future-format snapshot would resurrect stale
    # state, so the load refuses outright.
    with pytest.raises(SnapshotError, match="version"):
        store.load_latest()


def test_store_retain_validation(tmp_path):
    with pytest.raises(ValueError):
        SnapshotStore(str(tmp_path / "state"), retain=0)


# --------------------------------------------------------------------- #
# checkpointer                                                          #
# --------------------------------------------------------------------- #


def test_checkpointer_forced_write(tmp_path, core_and_tokens):
    core, _ = core_and_tokens
    checkpointer = Checkpointer(SnapshotStore(str(tmp_path / "state")))
    path = checkpointer.checkpoint(core)
    assert os.path.isfile(path)
    assert checkpointer.snapshots_written == 1


def test_checkpointer_honors_count_policy(tmp_path, core_and_tokens, traffic_rng):
    core, tokens = core_and_tokens
    checkpointer = Checkpointer(
        SnapshotStore(str(tmp_path / "state")),
        CheckpointPolicy(every_n_updates=2, every_seconds=None),
    )
    checkpointer.checkpoint(core)  # startup priming at t=0
    advance(core, tokens, traffic_rng)
    assert checkpointer.after_update(core) is None  # 1 update since: not due
    advance(core, tokens, traffic_rng)
    assert checkpointer.after_update(core) is not None  # 2 updates: due
    assert checkpointer.snapshots_written == 2


def test_checkpointer_note_restored_resets_baseline(
    tmp_path, core_and_tokens, traffic_rng
):
    core, tokens = core_and_tokens
    advance(core, tokens, traffic_rng, updates=5)
    checkpointer = Checkpointer(
        SnapshotStore(str(tmp_path / "state")),
        CheckpointPolicy(every_n_updates=2, every_seconds=None),
    )
    # What build_service does after recovery: one compacting snapshot,
    # which is also the baseline the next trigger measures from.
    checkpointer.checkpoint(core)
    # The 5 pre-restore updates don't count toward the next trigger.
    assert checkpointer.after_update(core) is None
    advance(core, tokens, traffic_rng, updates=2)
    assert checkpointer.after_update(core) is not None


def test_write_ahead_every_update_is_recoverable(
    tmp_path, core_and_tokens, traffic_rng
):
    """The crash-window contract: after every acked update there is a
    durable snapshot capturing it, so no acked state can be lost."""
    core, tokens = core_and_tokens
    checkpointer = Checkpointer(SnapshotStore(str(tmp_path / "state")))
    checkpointer.checkpoint(core)
    for _ in range(4):
        advance(core, tokens, traffic_rng)
        checkpointer.after_update(core)
        loaded, _ = checkpointer.store.load_latest()
        assert core_states_equal(core, restore_core(loaded, make_model()))
