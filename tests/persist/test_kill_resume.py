"""Crash-resume against a real ``repro-serve`` subprocess.

The durability headline, in deterministic form: a server is SIGKILLed
between check-ins (no handlers, no flush), restarted from its state
dir, and the run's final parameters are **bit-identical** to an
in-process :class:`ServerCore` fed the same messages.  The racing
variant (SIGKILL mid-traffic from a watchdog thread) lives in
``examples/durable_round.py``, which CI runs.
"""

from __future__ import annotations

import os
import socket

import numpy as np
import pytest

from repro.persist import ServeProcess, SnapshotStore, restore_core
from repro.persist.checkpoint import read_segment
from repro.persist.faults import tear_log_tail
from repro.serve.client import ServiceClient

from tests.persist.conftest import DIM, CLASSES, make_core, make_message, make_model


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def serve_env() -> dict:
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src",
    )
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def durable_server(state_dir: str, port: int) -> ServeProcess:
    return ServeProcess([
        "--port", str(port),
        "--num-features", str(DIM),
        "--num-classes", str(CLASSES),
        "--learning-rate-constant", "0.5",
        "--projection-radius", "10.0",
        "--state-dir", state_dir,
        "--checkpoint-every", "1",
    ], env=serve_env())


@pytest.fixture
def server(tmp_path):
    process = durable_server(str(tmp_path / "state"), free_port())
    process.start()
    yield process
    process.stop()


def make_client(url: str) -> ServiceClient:
    return ServiceClient(url, timeout=15.0, retries=8,
                         backoff=0.02, backoff_max=0.2)


def test_sigkill_resume_is_bit_identical(server, traffic_rng):
    client = make_client(server.url)
    reference = make_core()  # same construction as the CLI's
    tokens = {}
    for device_id in range(2):
        token, last_seq = client.join_info(device_id)
        assert last_seq == -1
        assert token == reference.register_device(device_id)
        tokens[device_id] = token

    seqs = dict.fromkeys(tokens, 0)

    def send_round():
        device_id = (seqs[0] + seqs[1]) % 2
        message = make_message(reference, device_id, tokens[device_id],
                               traffic_rng, seq=seqs[device_id])
        seqs[device_id] += 1
        ack = client.checkins([message]).acks[0]
        assert ack is not None and not ack.duplicate
        reference.handle_checkin(message)

    for _ in range(8):
        send_round()
    server.sigkill()  # no handlers, no flush — the crash under test
    server.start()
    for _ in range(8):
        send_round()

    status = client.status(include_parameters=True)
    assert status.iteration == 16 == reference.iteration
    assert np.array_equal(status.parameters, reference.parameters)
    assert status.duplicates_suppressed == 0
    assert server.kills == 1
    assert server.terminate() == 0


def test_rejoin_after_resume_seeds_sequence_numbers(server, traffic_rng):
    client = make_client(server.url)
    reference = make_core()
    token, _ = client.join_info(0)
    reference.register_device(0)
    for seq in range(3):
        message = make_message(reference, 0, token, traffic_rng, seq=seq)
        client.checkins([message])
        reference.handle_checkin(message)
    server.sigkill()
    server.start()
    # A fresh client enrolls anew: the join response tells it where the
    # resumed server's ledger stands, so its numbering cannot collide.
    rejoin = make_client(server.url)
    token2, last_seq = rejoin.join_info(0)
    assert token2 == token
    assert last_seq == 2
    message = make_message(reference, 0, token, traffic_rng, seq=last_seq + 1)
    ack = rejoin.checkins([message]).acks[0]
    assert ack is not None and not ack.duplicate
    reference.handle_checkin(message)
    status = rejoin.status(include_parameters=True)
    assert status.iteration == 4
    assert np.array_equal(status.parameters, reference.parameters)


def test_graceful_sigterm_flushes_final_snapshot(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    server = durable_server(state_dir, free_port())
    server.start()
    try:
        client = make_client(server.url)
        reference = make_core()
        token, _ = client.join_info(0)
        reference.register_device(0)
        for seq in range(3):
            message = make_message(reference, 0, token, traffic_rng, seq=seq)
            client.checkins([message])
            reference.handle_checkin(message)
        assert server.terminate() == 0  # clean: drained + flushed
    finally:
        server.stop()
    loaded, _ = SnapshotStore(state_dir).load_latest()
    restored = restore_core(loaded, make_model())
    assert restored.iteration == 3
    assert np.array_equal(restored.parameters, reference.parameters)
    assert restored.applied_checkin_seq(0) == 2


def test_torn_snapshot_falls_back_and_retry_heals(tmp_path, traffic_rng):
    state_dir = str(tmp_path / "state")
    server = durable_server(state_dir, free_port())
    server.start()
    try:
        client = make_client(server.url)
        reference = make_core()
        token, _ = client.join_info(0)
        reference.register_device(0)
        messages = [
            make_message(reference, 0, token, traffic_rng, seq=seq)
            for seq in range(5)
        ]
        for message in messages:
            client.checkins([message])
        server.sigkill()

        # Tear the newest log record (what a crash mid-append leaves):
        # the resume must discard it and come up at iteration 4, not
        # start over or crash.
        store = SnapshotStore(state_dir)
        records = read_segment(store.segment_paths()[-1])
        assert records[-1].iteration_before == 4
        assert tear_log_tail(state_dir) > 0
        assert len(read_segment(store.segment_paths()[-1])) == len(records) - 1
        del store

        server.start()
        client = make_client(server.url)
        assert client.status().iteration == 4

        # The client never saw seq 4's ack as durable — its retry of the
        # exact same message is applied once, landing the run back on
        # the reference trajectory bit for bit.
        ack = client.checkins([messages[4]]).acks[0]
        assert ack is not None and not ack.duplicate
        for message in messages:
            reference.handle_checkin(message)
        status = client.status(include_parameters=True)
        assert status.iteration == 5
        assert np.array_equal(status.parameters, reference.parameters)
    finally:
        server.stop()


def test_fresh_state_dir_is_primed_before_traffic(tmp_path):
    state_dir = str(tmp_path / "state")
    server = durable_server(state_dir, free_port())
    server.start()
    try:
        # Crash before any check-in: the priming checkpoint (written at
        # build time) still resumes the exact initial task state.
        server.sigkill()
        assert SnapshotStore(state_dir).load_latest() is not None
        server.start()
        client = make_client(server.url)
        assert client.status().iteration == 0
        token, last_seq = client.join_info(0)
        assert last_seq == -1 and token
    finally:
        server.stop()


def test_unusable_state_dir_refuses_to_start(tmp_path, capsys):
    from repro.serve.cli import main

    state_dir = tmp_path / "state"
    (state_dir / "snapshots").mkdir(parents=True)
    with open(state_dir / "snapshots" / "snapshot-000000000001.json", "w") as f:
        f.write("{ garbage")
    code = main([
        "--port", "0", "--num-features", str(DIM), "--num-classes", str(CLASSES),
        "--state-dir", str(state_dir),
    ])
    assert code == 2
    assert "repro-serve:" in capsys.readouterr().err
