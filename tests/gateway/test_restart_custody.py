"""Edge-gateway retry custody across a server restart.

A gateway whose flush fails transiently keeps custody of the buffered
batch (the batched Remark 1).  With a durable server, that custody
composes with crash-resume: a batch buffered while the server bounces
lands exactly once on the restored instance, and a replayed batch —
one whose acks were lost — is answered from the restored dedupe ledger
instead of double-counted.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.core.protocol import CheckinMessage
from repro.core.server_core import ServerCore
from repro.gateway.edge import EdgeGateway
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.persist import Checkpointer, SnapshotStore
from repro.serve.client import RemoteServiceError, ServiceClient
from repro.serve.service import CrowdService

DIM, CLASSES = 4, 3


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def make_model():
    return MulticlassLogisticRegression(num_features=DIM, num_classes=CLASSES)


def make_core() -> ServerCore:
    model = make_model()
    return ServerCore(
        model,
        paper_sgd(model.init_parameters(), learning_rate_constant=0.5,
                  projection_radius=10.0),
        config=ServerConfig(max_iterations=10_000),
    )


def make_message(model, device_id, token, rng, seq):
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=rng.normal(size=model.num_parameters),
        num_samples=int(rng.integers(1, 6)),
        noisy_error_count=int(rng.integers(0, 4)),
        noisy_label_counts=rng.integers(0, 5, size=model.num_classes),
        checkout_iteration=0,
        checkin_seq=seq,
    )


def test_buffered_batch_survives_server_bounce(tmp_path):
    rng = np.random.default_rng(42)
    port = free_port()
    state_dir = str(tmp_path / "state")
    store = SnapshotStore(state_dir)
    service = CrowdService(
        make_core(), port=port, checkpointer=Checkpointer(store)
    ).start()
    url = service.url
    model = make_model()
    # Short timeout: the mid-bounce flush should fail fast, not linger.
    client = ServiceClient(url, timeout=1.0)
    # flush_size larger than the batch: check-ins stay in the gateway's
    # buffer until an explicit flush.
    gateway = EdgeGateway(client, flush_size=100)
    token, _ = client.join_info(0)

    messages = [make_message(model, 0, token, rng, seq) for seq in range(3)]
    acks = []
    for message in messages:
        gateway.add(message, on_ack=acks.append)
    assert gateway.pending == 3

    # The server bounces (graceful here; the SIGKILL variant is covered
    # by tests/persist) while the batch is still in gateway custody.
    # Closing the pooled socket severs the last link to the old
    # instance — in-process shutdown leaves kept-alive handler threads
    # running, which a real process exit would not.
    service.stop()
    client.close()
    with pytest.raises(RemoteServiceError):
        gateway.flush()
    assert gateway.pending == 3  # custody kept, nothing lost
    assert acks == []

    # Restore from the state dir onto the same port.
    core2 = store.recover(make_model()).core
    service2 = CrowdService(
        core2, port=port, checkpointer=Checkpointer(store)
    ).start()
    try:
        flushed = gateway.flush()
        assert gateway.pending == 0
        assert len(flushed) == 3
        assert all(ack is not None and not ack.duplicate for ack in flushed)
        assert [ack.checkin_seq for ack in acks] == [0, 1, 2]
        assert core2.iteration == 3
        assert core2.duplicates_suppressed == 0
    finally:
        service2.stop()

    # Reference: the same messages against an in-process core, applied
    # once — the bounced run must match it bit for bit.
    reference = make_core()
    reference.register_device(0)
    for message in messages:
        reference.handle_checkin(message)
    assert np.array_equal(core2.parameters, reference.parameters)


def test_replayed_batch_not_double_counted_after_restart(tmp_path):
    rng = np.random.default_rng(43)
    port = free_port()
    state_dir = str(tmp_path / "state")
    store = SnapshotStore(state_dir)
    service = CrowdService(
        make_core(), port=port, checkpointer=Checkpointer(store)
    ).start()
    model = make_model()
    client = ServiceClient(service.url, timeout=5.0)
    gateway = EdgeGateway(client, flush_size=100)
    token, _ = client.join_info(0)

    # The batch lands and is made durable — but pretend the acks never
    # reached the devices (the drop_response trap), so the whole batch
    # is re-submitted after the server bounces.
    messages = [make_message(model, 0, token, rng, seq) for seq in range(3)]
    for message in messages:
        gateway.add(message)
    gateway.flush()
    assert service.core.iteration == 3
    service.stop()
    client.close()  # sever the kept-alive socket to the old instance

    core2 = store.recover(make_model()).core
    service2 = CrowdService(
        core2, port=port, checkpointer=Checkpointer(store)
    ).start()
    try:
        replays = []
        fresh = make_message(model, 0, token, rng, seq=3)
        for message in messages:
            gateway.add(message, on_ack=replays.append)
        gateway.add(fresh, on_ack=replays.append)
        gateway.flush()
        # The restored ledger recognizes all three replays; only the
        # fresh message advances the iteration.
        assert [ack.duplicate for ack in replays] == [True, True, True, False]
        assert core2.iteration == 4
        assert core2.duplicates_suppressed == 3
    finally:
        service2.stop()

    reference = make_core()
    reference.register_device(0)
    for message in messages + [fresh]:
        reference.handle_checkin(message)
    assert np.array_equal(core2.parameters, reference.parameters)
