"""ShardFrontEnd against in-process CrowdService workers.

Everything here runs on loopback threads: routing, split/merge of mixed
batches, status aggregation, and the unavailable/stale-epoch refusals.
Process-death failover lives in ``test_supervisor`` and the campaign.
"""

import numpy as np
import pytest

from repro.core.auth import DeviceRegistry
from repro.core.protocol import CheckinAck, CheckoutRequest
from repro.core.stopping import StopDecision
from repro.serve import wire
from repro.serve.client import (
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
)
from repro.serve.service import CrowdService
from repro.shard import ShardFrontEnd, ShardRouter, StaticEndpoints

from tests.shard.conftest import (
    SERVER_KEY,
    InProcessTier,
    make_core,
    make_message,
    owned_devices,
    tier,  # noqa: F401  (fixture)
    traffic_rng,  # noqa: F401  (fixture)
)


def fast_client(url: str) -> ServiceClient:
    return ServiceClient(url, timeout=10.0, retries=0)


def join_all(client, device_ids):
    return {d: client.join(d) for d in device_ids}


class TestRouting:
    def test_join_lands_on_owning_shard(self, tier):
        client = fast_client(tier.frontend.url)
        per_shard = [owned_devices(tier.router, k)[:2] for k in (0, 1)]
        reference = make_core(registry=DeviceRegistry(server_key=SERVER_KEY))
        for devices in per_shard:
            for device_id in devices:
                # Same token a direct worker join would mint.
                assert client.join(device_id) == reference.register_device(device_id)
        for shard, devices in enumerate(per_shard):
            status = wire.decode_status(
                client.call_raw("GET", f"/v1/status?shard={shard}")
            )
            assert status.registered_devices == len(devices)

    def test_checkout_and_checkin_roundtrip(self, tier, traffic_rng):
        client = fast_client(tier.frontend.url)
        device_id = owned_devices(tier.router, 1)[0]
        token = client.join(device_id)
        out = client.checkout(CheckoutRequest(
            device_id=device_id, token=token, request_time=0.0
        ))
        assert out.parameters.shape == tier.cores[1].parameters.shape
        message = make_message(tier.cores[1], device_id, token, traffic_rng, seq=0)
        result = client.checkins([message])
        assert result.acks[0] is not None
        assert result.acks[0].device_id == device_id
        assert tier.cores[1].iteration == 1
        assert tier.cores[0].iteration == 0
        # Single-shard batch rode the verbatim fast path.
        assert tier.frontend.split_batches == 0
        # The worker's epoch stamp survives the passthrough.
        assert result.epoch == tier.epochs[1]


class TestMixedBatch:
    def test_split_merge_preserves_order(self, tier, traffic_rng):
        client = fast_client(tier.frontend.url)
        devices = owned_devices(tier.router, 0)[:2] + owned_devices(tier.router, 1)[:2]
        devices = [devices[0], devices[2], devices[1], devices[3]]  # interleave
        tokens = join_all(client, devices)
        messages = [
            make_message(tier.cores[tier.router.shard_of(d)], d, tokens[d],
                         traffic_rng, seq=0)
            for d in devices
        ]
        result = client.checkins(messages)
        assert tier.frontend.split_batches == 1
        assert [ack.device_id for ack in result.acks] == devices
        assert all(ack is not None for ack in result.acks)
        # Merged iteration is the tier total (2 updates per shard).
        assert result.server_iteration == (
            tier.cores[0].iteration + tier.cores[1].iteration
        ) == 4
        assert result.stopped is False

    def test_split_slices_the_tail_and_decodes_no_vector(
        self, tier, traffic_rng, monkeypatch
    ):
        """A mixed batch reaches each shard as the sub-batch its own
        messages encode to, cut from the request's tail undecoded; a
        single-shard batch reaches its shard as the request's bytes."""
        forwarded = []

        def fake_worker(shard, method, path, body):
            forwarded.append((shard, body))
            entries, _ = wire.checkin_batch_entries(body)
            acks = [CheckinAck(entry["device_id"], 1) for entry in entries]
            return wire.encode_checkin_result(
                acks, 1, StopDecision.running(), epoch=tier.epochs[shard]
            ).encode()

        def no_vectors(*_):
            raise AssertionError("the front end decoded a vector")

        monkeypatch.setattr(tier.frontend, "_forward", fake_worker)
        monkeypatch.setattr(wire, "_vectors", no_vectors)
        client = fast_client(tier.frontend.url)
        devices = owned_devices(tier.router, 0)[:2] + owned_devices(tier.router, 1)[:1]
        devices = [devices[0], devices[2], devices[1]]  # interleave
        messages = [
            make_message(tier.cores[0], d, "tok", traffic_rng, seq=0) for d in devices
        ]
        result = client.checkins(messages)
        assert [ack.device_id for ack in result.acks] == devices
        monkeypatch.undo()
        assert [shard for shard, _ in forwarded] == [0, 1]
        for shard, body in forwarded:
            mine = [m for m in messages if tier.router.shard_of(m.device_id) == shard]
            assert body == wire.encode_checkin_batch(mine).encode("utf-8")
            for original, copy in zip(mine, wire.decode_checkin_batch(body)):
                assert copy.gradient.tobytes() == original.gradient.tobytes()
                assert copy.device_id == original.device_id
        forwarded.clear()
        monkeypatch.setattr(tier.frontend, "_forward", fake_worker)
        single = [m for m in messages if tier.router.shard_of(m.device_id) == 0]
        client.checkins(single)
        assert forwarded == [(0, wire.encode_checkin_batch(single).encode("utf-8"))]
        client.close()

    def test_stopped_shard_refuses_only_its_half(self, traffic_rng):
        # Shard 0 stops after one update; shard 1 keeps running.
        router = ShardRouter(2)
        cores = [
            make_core(max_iterations=1,
                      registry=DeviceRegistry(server_key=SERVER_KEY)),
            make_core(registry=DeviceRegistry(server_key=SERVER_KEY)),
        ]
        services = [CrowdService(core, port=0).start() for core in cores]
        frontend = ShardFrontEnd(router, StaticEndpoints({
            0: services[0].url, 1: services[1].url,
        })).start()
        try:
            client = fast_client(frontend.url)
            d0 = owned_devices(router, 0)[0]
            d1 = owned_devices(router, 1)[0]
            tokens = join_all(client, [d0, d1])
            first = client.checkins([
                make_message(cores[0], d0, tokens[d0], traffic_rng, seq=0),
                make_message(cores[1], d1, tokens[d1], traffic_rng, seq=0),
            ])
            assert all(ack is not None for ack in first.acks)
            assert cores[0].stopped  # max_iterations=1 reached
            second = client.checkins([
                make_message(cores[0], d0, tokens[d0], traffic_rng, seq=1),
                make_message(cores[1], d1, tokens[d1], traffic_rng, seq=1),
            ])
            assert second.acks[0] is None  # stopped shard's half
            assert second.acks[1] is not None
            assert second.stopped is False  # shard 1 still live
            assert second.stop_reason == "running"
        finally:
            frontend.stop()
            for service in services:
                service.stop()

    @staticmethod
    def fronted_cores_answer(references, router, messages):
        """The oracle: each sub-batch through its own core's
        ``handle_checkins`` unless that core had already stopped
        (``CrowdService``'s 409).  ``None`` = every involved core had."""
        groups = router.split(messages, device_id_of=lambda m: m.device_id)
        live = [s for s in sorted(groups) if not references[s].stopped]
        if not live:
            return None
        acks = [None] * len(messages)
        for shard in live:
            answers = references[shard].handle_checkins(
                [message for _, message in groups[shard]]
            )
            for (index, _), ack in zip(groups[shard], answers):
                acks[index] = ack
        stops = [references[s].stopping_decision() for s in live]
        return (
            tuple(acks),
            sum(references[s].iteration for s in live),
            next(stop for stop in stops if stop.stopped)
            if all(stop.stopped for stop in stops) else StopDecision.running(),
        )

    @pytest.mark.parametrize("limits, batches, outcome", [
        # (a) every involved shard had already stopped: one server's 409.
        pytest.param((1, 1), [(0, 1), (0, 1)], "refused", id="all-stopped"),
        # (b) one had: its slots stay null, the live half is acked.
        pytest.param((1, 10_000), [(0, 1), (0, 1)], "running", id="one-stopped"),
        # (c) the batch carries each shard's last allowed update.
        pytest.param((1, 2), [(1,), (0, 1)], "stopped", id="crosses-last-stop"),
    ])
    def test_stop_rule_is_the_fronted_cores(
        self, limits, batches, outcome, traffic_rng
    ):
        router = ShardRouter(2)

        def make_cores():
            return [
                make_core(max_iterations=limit,
                          registry=DeviceRegistry(server_key=SERVER_KEY))
                for limit in limits
            ]

        cores, references = make_cores(), make_cores()
        services = [CrowdService(core, port=0).start() for core in cores]
        frontend = ShardFrontEnd(router, StaticEndpoints({
            0: services[0].url, 1: services[1].url,
        })).start()
        try:
            client = fast_client(frontend.url)
            devices = [owned_devices(router, shard)[0] for shard in (0, 1)]
            tokens = join_all(client, devices)
            for reference, device_id in zip(references, devices):
                reference.register_device(device_id)
            for seq, shards in enumerate(batches):
                messages = [
                    make_message(cores[s], devices[s], tokens[devices[s]],
                                 traffic_rng, seq=seq)
                    for s in shards
                ]
                expected = self.fronted_cores_answer(references, router, messages)
                if expected is None:
                    with pytest.raises(RemoteServiceError) as excinfo:
                        client.checkins(messages)
                    assert excinfo.value.code == wire.ErrorCode.STOPPED
                    assert excinfo.value.http_status == 409
                    answered = "refused"
                else:
                    result = client.checkins(messages)
                    assert (
                        result.acks, result.server_iteration, result.stop_decision
                    ) == expected
                    answered = "stopped" if result.stopped else "running"
                # Lock-step: the tier applied exactly what the cores did.
                for core, reference in zip(cores, references):
                    assert core.iteration == reference.iteration
                    np.testing.assert_array_equal(
                        core.parameters, reference.parameters
                    )
            assert answered == outcome
            if outcome == "stopped":
                assert result.stop_reason == "max_iterations"
                assert result.server_iteration == sum(limits)
        finally:
            frontend.stop()
            for service in services:
                service.stop()


class TestStatus:
    def test_aggregated_counters_sum(self, tier, traffic_rng):
        client = fast_client(tier.frontend.url)
        devices = owned_devices(tier.router, 0)[:1] + owned_devices(tier.router, 1)[:2]
        tokens = join_all(client, devices)
        client.checkins([
            make_message(tier.cores[tier.router.shard_of(d)], d, tokens[d],
                         traffic_rng, seq=0)
            for d in devices
        ])
        status = client.status()
        assert status.iteration == 3
        assert status.registered_devices == 3
        assert status.stopped is False
        assert status.shards is not None and len(status.shards) == 2
        assert [row["shard"] for row in status.shards] == [0, 1]
        assert all(row["epoch"] == tier.epochs[row["shard"]]
                   for row in status.shards)

    def test_per_shard_passthrough_with_parameters(self, tier):
        client = fast_client(tier.frontend.url)
        status = wire.decode_status(
            client.call_raw("GET", "/v1/status?shard=0&parameters=1")
        )
        assert status.parameters is not None
        np.testing.assert_array_equal(status.parameters, tier.cores[0].parameters)

    def test_parameters_without_shard_rejected(self, tier):
        client = fast_client(tier.frontend.url)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.call_raw("GET", "/v1/status?parameters=1")
        assert excinfo.value.code == wire.ErrorCode.MALFORMED

    def test_unknown_shard_rejected(self, tier):
        client = fast_client(tier.frontend.url)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.call_raw("GET", "/v1/status?shard=9")
        assert excinfo.value.code == wire.ErrorCode.NOT_FOUND


class TestRefusals:
    def test_unrouted_shard_answers_retryable_503(self, tier):
        client = fast_client(tier.frontend.url)
        device_id = owned_devices(tier.router, 0)[0]
        tier.endpoints.set(0, None)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.join(device_id)
        assert excinfo.value.code == wire.ErrorCode.UNAVAILABLE
        assert excinfo.value.http_status == 503
        # Retryable by contract: a client with retries would ride it out.
        other = owned_devices(tier.router, 1)[0]
        assert client.join(other)  # the live shard still serves

    def test_bad_token_passes_through_as_401(self, tier):
        client = fast_client(tier.frontend.url)
        device_id = owned_devices(tier.router, 0)[0]
        client.join(device_id)
        with pytest.raises(RemoteAuthenticationError) as excinfo:
            client.checkout(CheckoutRequest(device_id, "not-the-token", 0.0))
        assert excinfo.value.code == wire.ErrorCode.AUTH_FAILED
        assert excinfo.value.http_status == 401
        assert not excinfo.value.transient

    def test_worker_5xx_answers_retryable_503(self, tier, monkeypatch):
        def crash(request):
            raise RuntimeError("worker bug")

        monkeypatch.setitem(
            tier.services[1]._routes, ("POST", "/v1/checkout"), crash
        )
        client = fast_client(tier.frontend.url)
        device_id = owned_devices(tier.router, 1)[0]
        token = client.join(device_id)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkout(CheckoutRequest(device_id, token, 0.0))
        assert excinfo.value.code == wire.ErrorCode.UNAVAILABLE
        assert excinfo.value.http_status == 503
        assert excinfo.value.transient
        assert tier.services[1].errors_returned[wire.ErrorCode.INTERNAL] == 3

    def test_stale_epoch_answer_refused(self, tier, traffic_rng):
        client = fast_client(tier.frontend.url)
        device_id = owned_devices(tier.router, 0)[0]
        token = client.join(device_id)
        # Simulate a completed failover the worker missed: the table
        # says epoch 5, the (zombie) worker still answers epoch 0.
        tier.endpoints.set(0, tier.services[0].url, epoch=5)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkins([
                make_message(tier.cores[0], device_id, token, traffic_rng, seq=0)
            ])
        assert excinfo.value.code == wire.ErrorCode.UNAVAILABLE
        assert tier.frontend.stale_epoch_rejections == 1

    def test_worker_error_counts_are_tracked(self, tier):
        client = fast_client(tier.frontend.url)
        tier.endpoints.set(1, None)
        with pytest.raises(RemoteServiceError):
            client.join(owned_devices(tier.router, 1)[0])
        assert tier.frontend.errors_returned.get(wire.ErrorCode.UNAVAILABLE) == 1
        assert tier.frontend.total_errors == 1
