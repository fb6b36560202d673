"""The check-in log: commit, compaction, recovery, and what a cut leaves.

Durability is one appended record per accepted request, so these tests
pin the three things that design must get right: the *cost* is the
request's bytes and nothing else (a count gate, exact), *recovery* —
newest valid snapshot + replay of the log tail — lands on exactly the
acked prefix whatever a crash or power cut did to the tail (a hypothesis
property over generated traffic), and every way a commit can fail ends
in a 500, never in an ack for state the disk does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.persist.checkpoint as checkpoint_module
from repro.core.protocol import CheckoutRequest
from repro.obs.metrics import MetricsRegistry
from repro.persist import (
    Checkpointer,
    CheckpointPolicy,
    ServeProcess,
    SnapshotError,
    SnapshotStore,
    restore_core,
    snapshot_core,
)
from repro.persist.checkpoint import KIND_CHECKINS, RECORD_HEADER_BYTES, read_segment
from repro.persist.snapshot import pack_float_array
from repro.persist.faults import lose_log_tail, tear_log_tail
from repro.serve import wire
from repro.serve.cli import build_parser, build_service
from repro.serve.client import (
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
)
from repro.serve.service import CrowdService
from repro.utils.exceptions import AuthenticationError

from tests.persist.conftest import (
    CLASSES,
    DIM,
    core_states_equal,
    describe_mismatch,
    make_core,
    make_message,
    make_model,
)
from tests.persist.test_kill_resume import free_port, make_client, serve_env


def durable_service(state_dir, policy=None, metrics=None, retain=4) -> CrowdService:
    """A primed in-process durable service, built the way the CLI builds one."""
    core = make_core()
    checkpointer = Checkpointer(SnapshotStore(state_dir, retain=retain), policy)
    checkpointer.checkpoint(core)
    return CrowdService(core, checkpointer=checkpointer, metrics=metrics)


def log_bytes(state_dir) -> int:
    store = SnapshotStore(state_dir)
    return sum(os.path.getsize(path) for path in store.segment_paths())


def all_records(state_dir):
    store = SnapshotStore(state_dir)
    return [r for path in store.segment_paths() for r in read_segment(path)]


def record_ends(segment):
    """Byte offsets just past each valid record of one segment."""
    ends, offset = [], 0
    for record in read_segment(segment):
        offset += RECORD_HEADER_BYTES + len(record.payload)
        ends.append(offset)
    return ends


# --------------------------------------------------------------------- #
# (a) recovery == the acked prefix, under any kill point and tear       #
# --------------------------------------------------------------------- #

DEVICES = st.integers(0, 2)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("join"), DEVICES),
        st.tuples(st.just("checkout"), DEVICES, st.booleans()),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(DEVICES, st.sampled_from(["fresh", "replay", "forged"])),
                min_size=1, max_size=4,
            ),
        ),
    ),
    max_size=14,
)


@given(
    operations=OPERATIONS,
    seed=st.integers(0, 2**32 - 1),
    kill_fraction=st.floats(0.0, 1.0),
    tear=st.one_of(st.none(), st.floats(0.0, 0.999)),
)
@settings(max_examples=40, deadline=None)
def test_recover_equals_acked_prefix_on_random_histories(
    operations, seed, kill_fraction, tear
):
    """Joins, batches, in-batch duplicates, forged tokens and interleaved
    check-outs run through a live service; the process "dies" after a
    random prefix and the tail of its log is optionally torn mid-record.
    An independent reference core applies the same prefix directly; the
    recovered core must equal the reference *as of its last logged
    request* — parameters, ledgers and all three unlogged counters."""
    rng = np.random.default_rng(seed)
    reference = make_core()
    durable_states = [snapshot_core(reference)]  # as of each logged request
    tokens, next_seq, last_applied = {}, {}, {}
    survivors = operations[: int(len(operations) * kill_fraction)]
    with tempfile.TemporaryDirectory() as state_dir:
        with durable_service(state_dir) as service:
            client = ServiceClient(service.url, timeout=10.0)
            for operation in survivors:
                if operation[0] == "join":
                    device_id = operation[1]
                    tokens[device_id], _ = client.join_info(device_id)
                    assert tokens[device_id] == reference.register_device(device_id)
                    next_seq.setdefault(device_id, 0)
                    durable_states.append(snapshot_core(reference))
                elif operation[0] == "checkout":
                    _, device_id, forged = operation
                    token = "forged" if forged else tokens.get(device_id, "none")
                    request = CheckoutRequest(device_id, token, request_time=0.0)
                    try:
                        client.checkout(request)
                    except RemoteAuthenticationError:
                        with pytest.raises(AuthenticationError):
                            reference.handle_checkout(request)
                    else:
                        reference.handle_checkout(request)
                else:
                    messages = []
                    for device_id, kind in operation[1]:
                        if kind == "replay" and device_id in last_applied:
                            messages.append(last_applied[device_id])
                            continue
                        joined = device_id in tokens and kind != "forged"
                        message = make_message(
                            reference, device_id,
                            tokens[device_id] if joined else "forged", rng,
                            seq=next_seq.get(device_id, 0),
                        )
                        if joined:
                            next_seq[device_id] += 1
                            last_applied[device_id] = message
                        messages.append(message)
                    before = reference.iteration
                    expected = reference.handle_checkins(messages)
                    assert list(client.checkins(messages).acks) == expected
                    if reference.iteration != before:
                        durable_states.append(snapshot_core(reference))
            client.close()
            # SIGKILL semantics: appends are unbuffered, so the files as
            # they stand are what a killed process leaves.
            records = all_records(state_dir)
            assert len(records) == len(durable_states) - 1
            if tear is not None and records:
                tear_log_tail(state_dir, keep=tear)
                durable_states.pop()
            recovered = SnapshotStore(state_dir).recover(make_model())
    expected_core = restore_core(durable_states[-1], make_model())
    assert recovered.records_replayed == len(durable_states) - 1
    assert describe_mismatch(expected_core, recovered.core) is None
    assert core_states_equal(expected_core, recovered.core)


# --------------------------------------------------------------------- #
# (c) the count gate: bytes per ack == header + body, flat in M         #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("registered", [256, 2048, 16384])
def test_bytes_per_ack_are_header_plus_body_whatever_the_crowd(
    tmp_path, registered, traffic_rng
):
    state_dir = str(tmp_path / "state")
    service = build_service(build_parser().parse_args([
        "--num-features", str(DIM), "--num-classes", str(CLASSES), "--port", "0",
        "--state-dir", state_dir, "--register", str(registered),
    ]))
    with service:
        client = ServiceClient(service.url, timeout=10.0)
        token = service.core.registry.register(0)
        assert service.core.registry.num_registered == registered
        bodies = []
        for seq in range(3):
            message = make_message(service.core, 0, token, traffic_rng, seq=seq)
            bodies.append(wire.encode_checkin_batch([message]).encode("utf-8"))
            size_before = log_bytes(state_dir)
            assert client.checkins([message]).acks[0] is not None
            # Exact, not timed: one ack appended the request and a
            # fixed header — nothing that scales with the registry.
            assert log_bytes(state_dir) - size_before == (
                RECORD_HEADER_BYTES + len(bodies[-1])
            )
        client.close()
    assert [record.payload for record in all_records(state_dir)] == bodies
    assert len(SnapshotStore(state_dir).snapshot_paths()) == 1  # priming only


# --------------------------------------------------------------------- #
# (d) --checkpoint-every 8: SIGKILL loses nothing, power loss <= 7      #
# --------------------------------------------------------------------- #


def test_sparse_sync_survives_sigkill_and_heals_after_lost_tail(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    server = ServeProcess([
        "--port", str(free_port()),
        "--num-features", str(DIM), "--num-classes", str(CLASSES),
        "--learning-rate-constant", "0.5", "--projection-radius", "10.0",
        "--state-dir", state_dir, "--checkpoint-every", "8",
    ], env=serve_env())
    server.start()
    try:
        client = make_client(server.url)
        reference = make_core()
        token, _ = client.join_info(0)
        reference.register_device(0)
        messages = [
            make_message(reference, 0, token, traffic_rng, seq=seq)
            for seq in range(19)
        ]
        for message in messages[:12]:
            assert client.checkins([message]).acks[0] is not None
        server.sigkill()
        server.start()
        # Every update was appended before its ack, synced or not: a
        # process crash (the page cache survives it) loses none of them.
        assert make_client(server.url).status().iteration == 12

        client = make_client(server.url)
        for message in messages[12:]:
            assert client.checkins([message]).acks[0] is not None
        server.sigkill()
        # A power cut also drops the appends not yet synced — at most
        # the 7 since the last durability point.
        assert lose_log_tail(state_dir, 7) == 7
        server.start()
        client = make_client(server.url)
        survived = client.status().iteration
        assert 19 - 7 <= survived < 19
        # The clients never saw those acks as durable; their retries are
        # applied exactly once (the survivors answer as duplicates) and
        # land the run back on the reference trajectory bit for bit.
        acks = [client.checkins([message]).acks[0] for message in messages[12:]]
        assert [ack.duplicate for ack in acks] == (
            [True] * (survived - 12) + [False] * (19 - survived)
        )
        for message in messages:
            reference.handle_checkin(message)
        status = client.status(include_parameters=True)
        assert status.iteration == 19
        assert np.array_equal(status.parameters, reference.parameters)
    finally:
        server.stop()


def test_policy_decides_which_commits_fsync(tmp_path, traffic_rng):
    metrics = MetricsRegistry(name="test")

    def log_syncs() -> int:
        (series,) = [h for h in metrics.snapshot()["histograms"]
                     if h["name"] == "checkpoint_fsync_seconds"]
        return series["count"]

    service = durable_service(
        str(tmp_path / "state"), CheckpointPolicy(4), metrics=metrics
    )
    with service:
        client = ServiceClient(service.url, timeout=10.0)
        token, _ = client.join_info(0)
        assert log_syncs() == 1  # a join always syncs
        for seq in range(8):
            message = make_message(service.core, 0, token, traffic_rng, seq=seq)
            client.checkins([message])
        client.close()
    assert log_syncs() == 1 + 2  # at iterations 4 and 8, not at every ack
    assert len(all_records(str(tmp_path / "state"))) == 9  # all appended


# --------------------------------------------------------------------- #
# compaction, retention, fallback                                       #
# --------------------------------------------------------------------- #


def test_compaction_bounds_the_log_and_keeps_fallback_replayable(
    tmp_path, traffic_rng, monkeypatch
):
    record_bytes = RECORD_HEADER_BYTES + 400  # a d=4 check-in is ~450 B
    monkeypatch.setattr(checkpoint_module, "COMPACT_LOG_BYTES", 4 * record_bytes)
    state_dir = str(tmp_path / "state")
    metrics = MetricsRegistry(name="test")
    with durable_service(state_dir, metrics=metrics, retain=2) as service:
        client = ServiceClient(service.url, timeout=10.0)
        token, _ = client.join_info(0)
        for seq in range(40):
            message = make_message(service.core, 0, token, traffic_rng, seq=seq)
            assert client.checkins([message]).acks[0] is not None
        client.close()
        store = SnapshotStore(state_dir)
        counters = {c["name"]: c["value"] for c in metrics.snapshot()["counters"]}
        # Every request is in the log — a compaction snapshots *after*
        # the append, so a fallback past it finds no hole.
        assert counters["checkpoint_log_commits_total"] == 41
        assert counters["checkpoint_compactions_total"] >= 5
        assert counters["checkpoint_log_bytes_total"] > 40 * record_bytes
        # Snapshots are retained newest-2; segments only as long as one
        # of those two may need them.
        assert len(store.snapshot_paths()) == 2
        assert len(store.segment_paths()) <= 4
        assert log_bytes(state_dir) < 40 * record_bytes
        recovered = store.recover(make_model())
        assert core_states_equal(service.core, recovered.core)
        # Tear the newest snapshot: recovery falls back to the older one
        # and replays further — through segments retention kept for it.
        newest = store.snapshot_paths()[0]
        os.truncate(newest, os.path.getsize(newest) // 2)
        fallback = store.recover(make_model())
        assert fallback.snapshot_path == store.snapshot_paths()[1]
        assert fallback.records_replayed > recovered.records_replayed
        assert core_states_equal(service.core, fallback.core)


def test_restart_compacts_and_never_appends_to_an_old_segment(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    args = build_parser().parse_args([
        "--num-features", str(DIM), "--num-classes", str(CLASSES), "--port", "0",
        "--state-dir", state_dir,
    ])
    with build_service(args) as service:
        client = ServiceClient(service.url, timeout=10.0)
        token, _ = client.join_info(0)
        message = make_message(service.core, 0, token, traffic_rng, seq=0)
        client.checkins([message])
        client.close()
    # No graceful flush ran (build_service, not main): this is a crash.
    old_segments = SnapshotStore(state_dir).segment_paths()
    old_sizes = [os.path.getsize(path) for path in old_segments]
    restarted = build_service(args)
    with restarted:
        assert restarted.records_replayed == 2  # the join and the check-in
        assert restarted.core.iteration == 1
        # Startup compacted: a restart right now would replay nothing.
        assert SnapshotStore(state_dir).recover(make_model()).records_replayed == 0
        client = ServiceClient(restarted.url, timeout=10.0)
        client.checkins([make_message(restarted.core, 0, token, traffic_rng, seq=1)])
        client.close()
    segments = SnapshotStore(state_dir).segment_paths()
    assert segments[: len(old_segments)] == old_segments
    assert len(segments) == len(old_segments) + 1
    assert [os.path.getsize(path) for path in old_segments] == old_sizes


def test_gap_in_the_log_is_an_error_not_a_silent_rewind(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    with durable_service(state_dir) as service:
        client = ServiceClient(service.url, timeout=10.0)
        token, _ = client.join_info(0)
        for seq in range(3):
            client.checkins([make_message(service.core, 0, token, traffic_rng, seq=seq)])
        client.close()
    store = SnapshotStore(state_dir)
    (segment,) = store.segment_paths()
    ends = record_ends(segment)
    with open(segment, "rb") as handle:
        data = handle.read()
    # Splice the second check-in out: the third now resumes at an
    # iteration the state before it never reached.
    with open(segment, "wb") as handle:
        handle.write(data[: ends[1]] + data[ends[2]:])
    with pytest.raises(SnapshotError, match="acked updates are missing"):
        store.recover(make_model())


def test_corrupt_record_ends_the_segment(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    with durable_service(state_dir) as service:
        client = ServiceClient(service.url, timeout=10.0)
        token, _ = client.join_info(0)
        for seq in range(3):
            client.checkins([make_message(service.core, 0, token, traffic_rng, seq=seq)])
        client.close()
    (segment,) = SnapshotStore(state_dir).segment_paths()
    ends = record_ends(segment)
    with open(segment, "r+b") as handle:  # flip one payload byte of record 3
        handle.seek(ends[2] - 10)
        byte = handle.read(1)
        handle.seek(ends[2] - 10)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert len(read_segment(segment)) == 2  # CRC catches it; the rest is cut
    assert SnapshotStore(state_dir).recover(make_model()).core.iteration == 1


# --------------------------------------------------------------------- #
# a commit that fails never acks, and the log heals                     #
# --------------------------------------------------------------------- #


def test_failed_fsync_fails_the_request_and_next_commit_covers_it(
    tmp_path, traffic_rng, monkeypatch
):
    state_dir = str(tmp_path / "state")
    with durable_service(state_dir) as service:
        client = ServiceClient(service.url, timeout=10.0, retries=0)
        token, _ = client.join_info(0)
        store = service._checkpointer.store
        monkeypatch.setattr(
            store, "sync_log", lambda: (_ for _ in ()).throw(OSError("disk gone"))
        )
        first = make_message(service.core, 0, token, traffic_rng, seq=0)
        with pytest.raises(RemoteServiceError) as refused:
            client.checkins([first])
        assert refused.value.code == wire.ErrorCode.INTERNAL  # 500, no ack
        monkeypatch.undo()
        # The core applied the update but its record is not known
        # durable.  The retry is a pure duplicate — nothing to log — yet
        # its ack must not leave before the update is on disk: the
        # commit owed is paid as a snapshot.  (Drop the unsynced record
        # as a power cut would, so only the snapshot can vouch for it.)
        snapshots_before = len(store.snapshot_paths())
        assert client.checkins([first]).acks[0].duplicate
        assert len(store.snapshot_paths()) == snapshots_before + 1
        lose_log_tail(state_dir, 1)
        recovered = SnapshotStore(state_dir).recover(make_model())
        assert recovered.core.iteration == 1
        assert core_states_equal(service.core, recovered.core)
        # Paid once: the next commits are plain appends again.
        second = make_message(service.core, 0, token, traffic_rng, seq=1)
        assert not client.checkins([second]).acks[0].duplicate
        assert len(store.snapshot_paths()) == snapshots_before + 1
        client.close()
        recovered = SnapshotStore(state_dir).recover(make_model())
        assert recovered.core.iteration == 2
        assert core_states_equal(service.core, recovered.core)


def test_state_dir_from_before_the_log_recovers(tmp_path, traffic_rng):
    """A state dir written before the log existed: snapshots only."""
    state_dir = str(tmp_path / "state")
    core = make_core()
    token = core.register_device(0)
    core.handle_checkin(make_message(core, 0, token, traffic_rng, seq=0))
    store = SnapshotStore(state_dir)
    store.write(snapshot_core(core))
    shutil.rmtree(store.log_dir)
    recovered = SnapshotStore(state_dir).recover(make_model())
    assert recovered.records_replayed == 0
    assert core_states_equal(core, recovered.core)


def test_a_log_of_older_protocol_bodies_is_refused_not_half_recovered(
    tmp_path, traffic_rng
):
    """A protocol-3 build must not replay a protocol-2 record (base64
    gradients inside the JSON): recovery stops with one typed error
    naming both versions and the state dir, not a core at the record
    before it."""
    state_dir = str(tmp_path / "state")
    core = make_core()
    token = core.register_device(0)
    store = SnapshotStore(state_dir)
    store.write(snapshot_core(core))
    first = make_message(core, 0, token, traffic_rng, seq=0)
    core.handle_checkin(first)
    store.append(KIND_CHECKINS, 0, core, wire.encode_checkin_batch([first]).encode())
    second = make_message(core, 0, token, traffic_rng, seq=1)
    v3_entry = wire.parse_envelope(wire.encode_checkin_batch([second]))[1]["messages"][0]
    v2_entry = {**v3_entry, "gradient": pack_float_array(second.gradient)}
    v2_body = {"protocol": 2, "kind": "checkin_batch", "body": {"messages": [v2_entry]}}
    store.append(KIND_CHECKINS, 1, core, json.dumps(v2_body).encode())
    store.sync_log()
    store._segment.close()  # the writer is gone, as after a restart
    with pytest.raises(SnapshotError) as refused:
        SnapshotStore(state_dir).recover(make_model())
    message = str(refused.value)
    assert "protocol version 2" in message
    assert f"supported {wire.PROTOCOL_VERSION}" in message
    assert os.path.abspath(state_dir) in message
