"""An EdgeGateway in front of a sharded tier.

The gateway sends every flush upstream whole; the front end is the one
place a mixed batch is split per owning shard, with the acks merged back
in flush order.
"""

import pytest

from repro.gateway.edge import EdgeGateway

from tests.shard.conftest import (
    InProcessTier,
    make_client,
    make_message,
    owned_devices,
    traffic_rng,  # noqa: F401  (fixture)
)


@pytest.fixture
def tier():
    built = InProcessTier(num_shards=2)
    yield built
    built.close()


def test_mixed_flush_splits_per_shard(tier, traffic_rng):
    client = make_client(tier.frontend.url, retries=0)
    devices = owned_devices(tier.router, 0)[:2] + owned_devices(tier.router, 1)[:2]
    tokens = {d: client.join(d) for d in devices}
    gateway = EdgeGateway(client, flush_size=len(devices))
    acks = {}
    for device_id in devices:
        message = make_message(
            tier.cores[tier.router.shard_of(device_id)],
            device_id, tokens[device_id], traffic_rng, seq=0,
        )
        gateway.add(message, on_ack=lambda ack, d=device_id: acks.__setitem__(d, ack))
    assert gateway.pending == 0  # flush_size trigger fired
    # The mixed flush reached the front end whole and was split there.
    assert gateway.requests_made == 1
    assert tier.frontend.split_batches == 1
    assert set(acks) == set(devices)
    # Acks landed on the right devices: each device's first update on its
    # own shard is iteration 1 or 2 of that shard, in flush order.
    for shard in (0, 1):
        owned = [d for d in devices if tier.router.shard_of(d) == shard]
        assert [acks[d].server_iteration for d in owned] == [1, 2]
        assert all(acks[d].device_id == d for d in owned)
    assert tier.cores[0].iteration == 2
    assert tier.cores[1].iteration == 2
    # Merged last_result reflects the whole flush.
    assert gateway.last_result is not None
    assert gateway.last_result.server_iteration == 4
    assert gateway.last_result.stopped is False


def test_single_shard_flush_goes_whole(tier, traffic_rng):
    client = make_client(tier.frontend.url, retries=0)
    devices = owned_devices(tier.router, 0)[:2]
    tokens = {d: client.join(d) for d in devices}
    gateway = EdgeGateway(client, flush_size=2)
    for device_id in devices:
        gateway.add(make_message(
            tier.cores[0], device_id, tokens[device_id], traffic_rng, seq=0,
        ))
    assert tier.frontend.split_batches == 0  # one owning shard → passthrough
    assert tier.cores[0].iteration == 2


def test_routerless_gateway_unchanged(tier, traffic_rng):
    # A two-device mixed flush: one upstream request, split at the front
    # end, one update per shard.
    client = make_client(tier.frontend.url, retries=0)
    devices = owned_devices(tier.router, 0)[:1] + owned_devices(tier.router, 1)[:1]
    tokens = {d: client.join(d) for d in devices}
    gateway = EdgeGateway(client, flush_size=2)
    for device_id in devices:
        gateway.add(make_message(
            tier.cores[tier.router.shard_of(device_id)],
            device_id, tokens[device_id], traffic_rng, seq=0,
        ))
    assert gateway.requests_made == 1
    assert tier.frontend.split_batches == 1
    assert tier.cores[0].iteration == 1
    assert tier.cores[1].iteration == 1
