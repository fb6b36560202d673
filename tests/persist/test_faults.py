"""Fault campaign: a retrying client through a lossy proxy loses nothing.

An in-process :class:`CrowdService` (with write-ahead checkpointing)
sits behind a seeded :class:`FaultyProxy` that refuses connections,
drops requests, swallows responses after the server applied them, and
delays.  A retrying :class:`ServiceClient` pushes sequenced check-ins
through the chaos; the invariants at the end:

* zero unhandled server-side exceptions (no ``internal`` 500s),
* the server iteration equals the number of **distinct** check-ins —
  nothing lost, nothing double-applied,
* the dedupe ledger actually fired (``duplicates_suppressed > 0``),
  i.e. the campaign exercised the lost-ack trap rather than passing
  vacuously (the proxy counters prove faults were injected).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.persist import Checkpointer, FaultyProxy, SnapshotStore
from repro.serve import wire
from repro.serve.client import RemoteServiceError, ServiceClient
from repro.serve.service import CrowdService

from tests.persist.conftest import make_core, make_message

NUM_DEVICES = 3
CHECKINS_PER_DEVICE = 12


@pytest.fixture
def service(tmp_path):
    core = make_core()
    checkpointer = Checkpointer(SnapshotStore(str(tmp_path / "state")))
    with CrowdService(core, checkpointer=checkpointer) as svc:
        yield svc


def test_chaos_campaign_exactly_once(service, traffic_rng):
    proxy = FaultyProxy(
        service.url, seed=11,
        refuse=0.08, drop_request=0.08, drop_response=0.18, delay=0.05,
        delay_seconds=0.005,
    )
    with proxy:
        client = ServiceClient(
            proxy.url, timeout=10.0, retries=12,
            backoff=0.005, backoff_max=0.05,
        )
        tokens = {}
        for device_id in range(NUM_DEVICES):
            token, last_seq = client.join_info(device_id)
            tokens[device_id] = token
            assert last_seq == -1  # fresh enrollment
        core = service.core
        for seq in range(CHECKINS_PER_DEVICE):
            for device_id in range(NUM_DEVICES):
                message = make_message(core, device_id, tokens[device_id],
                                       traffic_rng, seq=seq)
                result = client.checkins([message])
                ack = result.acks[0]
                assert ack is not None
                assert ack.checkin_seq == seq
        status = client.status()

    total = NUM_DEVICES * CHECKINS_PER_DEVICE
    # Exactly-once: every distinct check-in applied, none twice.
    assert status.iteration == total
    assert core.iteration == total
    for device_id in range(NUM_DEVICES):
        assert core.applied_checkin_seq(device_id) == CHECKINS_PER_DEVICE - 1

    # The campaign was not vacuous: faults landed, retries happened, and
    # the lost-ack trap (response dropped after apply) was sprung and
    # answered from the dedupe ledger.
    faults = proxy.stats_snapshot()
    injected = (faults["refused"] + faults["requests_dropped"]
                + faults["responses_dropped"])
    assert injected > 0, faults
    assert faults["responses_dropped"] > 0, faults
    assert client.retries_used > 0
    assert core.duplicates_suppressed > 0

    # Zero unhandled server exceptions: nothing 500'd.
    assert service.errors_returned.get(wire.ErrorCode.INTERNAL, 0) == 0, (
        service.errors_returned
    )


def test_chaos_campaign_state_remains_restorable(service, traffic_rng):
    """After the dust settles, the recovered state equals the live core."""
    from tests.persist.conftest import core_states_equal, make_model

    proxy = FaultyProxy(service.url, seed=3, drop_response=0.3)
    with proxy:
        client = ServiceClient(proxy.url, timeout=10.0, retries=10,
                               backoff=0.005, backoff_max=0.05)
        token, _ = client.join_info(0)
        for seq in range(8):
            message = make_message(service.core, 0, token, traffic_rng, seq=seq)
            assert client.checkins([message]).acks[0] is not None
    state_dir = service._checkpointer.store.state_dir
    recovered = SnapshotStore(state_dir).recover(make_model())
    assert recovered.records_replayed > 0  # the log, not a snapshot per ack
    assert core_states_equal(service.core, recovered.core)


def test_refusing_proxy_without_retries_fails_fast(service):
    proxy = FaultyProxy(service.url, seed=0, refuse=1.0)
    with proxy:
        client = ServiceClient(proxy.url, timeout=2.0, retries=0)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.status()
        assert excinfo.value.code == wire.ErrorCode.UNREACHABLE
    assert proxy.stats_snapshot()["refused"] >= 1


def test_proxy_passthrough_is_transparent(service):
    proxy = FaultyProxy(service.url, seed=0)  # all probabilities zero
    with proxy:
        client = ServiceClient(proxy.url, timeout=5.0)
        status = client.status()
        assert status.iteration == 0
        assert proxy.stats_snapshot()["passed"] >= 1
        assert proxy.stats_snapshot()["refused"] == 0


def test_proxy_probability_validation(service):
    with pytest.raises(ValueError):
        FaultyProxy(service.url, refuse=0.7, drop_response=0.5)
    with pytest.raises(ValueError):
        FaultyProxy(service.url, refuse=-0.1)


def test_proxy_retarget_after_restart(tmp_path, traffic_rng):
    """set_upstream points the same proxy at a bounced server."""
    core1 = make_core()
    service1 = CrowdService(core1).start()
    proxy = FaultyProxy(service1.url, seed=0)
    with proxy:
        client = ServiceClient(proxy.url, timeout=5.0, retries=3,
                               backoff=0.005)
        assert client.status().iteration == 0
        service1.stop()
        core2 = make_core()
        service2 = CrowdService(core2).start()
        try:
            proxy.set_upstream(service2.port)
            assert client.status().iteration == 0
        finally:
            service2.stop()
