"""The HTTP side of the gateway tier: cached check-outs, batched uplinks.

Two contracts meet here:

* a check-out encoded from the service's cached parameter tail must be
  **byte-identical** to one encoded from the vector, for any parameter
  vector (the cache is an optimization, never an observable change);
* an :class:`~repro.gateway.edge.EdgeGateway` fronting a segment of
  :class:`~repro.serve.remote.RemoteDevice`\\ s must collapse their HTTP
  traffic (shared epoch check-outs + batched ``POST /v1/checkins``)
  while a sequential ``flush_size=1`` gateway stays bit-identical to
  per-device traffic.
"""

import numpy as np
import pytest

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.protocol import CheckoutResponse
from repro.core.server_core import ServerCore
from repro.gateway.edge import GATEWAY_DEVICE_ID, EdgeGateway
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import CrowdService, HttpTransport, RemoteDevice, wire
from repro.serve.client import RemoteServiceError, ServiceClient

DIM, CLASSES = 20, 4


def make_core(max_iterations=1000):
    model = MulticlassLogisticRegression(DIM, CLASSES)
    return ServerCore(
        model,
        paper_sgd(model.init_parameters(), learning_rate_constant=1.0,
                  projection_radius=100.0),
        ServerConfig(max_iterations=max_iterations),
    )


class TestCheckoutCachePinning:
    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 1.0, -1.5],
            [1e300, -1e300, 3e-17, 2.2250738585072014e-308],
            [0.1 + 0.2, np.pi, -np.e, 1 / 3],
            [],
        ],
    )
    def test_cached_encoder_is_byte_identical(self, values):
        parameters = np.array(values, dtype=np.float64)
        response = CheckoutResponse(
            device_id=42, parameters=parameters,
            server_iteration=17, issued_time=3.25,
        )
        reference = wire.encode_checkout_response(response)
        cached = wire.encode_checkout_response(response, wire.hex_tail(parameters))
        assert cached == reference

    def test_service_reuses_the_fragment_until_an_update(self):
        core = make_core()
        with CrowdService(core) as service:
            client = ServiceClient(service.url)
            token = client.join(0)
            from repro.core.protocol import CheckoutRequest

            first = client.checkout(CheckoutRequest(0, token, 0.0))
            second = client.checkout(CheckoutRequest(0, token, 1.0))
            assert np.array_equal(first.parameters, second.parameters)
            assert first.server_iteration == second.server_iteration
            # One fragment served both check-outs of iteration 0.
            assert service._encoded_parameters[0] == 0

            from repro.core.protocol import CheckinMessage

            client.checkins([CheckinMessage(
                device_id=0, token=token,
                gradient=np.ones(first.parameters.shape[0]),
                num_samples=1, noisy_error_count=0,
                noisy_label_counts=np.zeros(CLASSES, dtype=np.int64),
                checkout_iteration=first.server_iteration,
            )])
            third = client.checkout(CheckoutRequest(0, token, 2.0))
            assert third.server_iteration == first.server_iteration + 1
            assert not np.array_equal(first.parameters, third.parameters)
            assert service._encoded_parameters[0] == third.server_iteration
            assert service.total_errors == 0


def _drive_devices(service_url, num_devices, num_rounds, gateway=None,
                   seed=0):
    """Run a fixed round-robin schedule of device rounds; returns devices."""
    transport = HttpTransport(service_url)
    model = MulticlassLogisticRegression(DIM, CLASSES)
    devices = [
        RemoteDevice.join(
            transport, d, model,
            DeviceConfig.default(batch_size=2, num_classes=CLASSES),
            np.random.default_rng(seed + d),
            gateway=gateway,
        )
        for d in range(num_devices)
    ]
    streams = [np.random.default_rng(1000 + seed + d) for d in range(num_devices)]
    for _ in range(num_rounds):
        for device, stream in zip(devices, streams):
            if device.stopped:
                continue
            while not device.observe(
                stream.normal(size=DIM), int(stream.integers(CLASSES))
            ):
                pass
            device.run_round()
    if gateway is not None and not gateway.stopped:
        gateway.flush()
    return devices


class TestEdgeGateway:
    def test_sequential_gateway_is_bit_identical_to_per_device_http(self):
        """flush_size=1, no shared check-outs: the gateway degenerates to
        a forwarder and the final parameters match per-device HTTP
        traffic exactly."""
        results = []
        for use_gateway in (False, True):
            core = make_core()
            with CrowdService(core) as service:
                gateway = (
                    EdgeGateway(service.url, flush_size=1,
                                share_checkouts=False)
                    if use_gateway else None
                )
                _drive_devices(service.url, num_devices=3, num_rounds=4,
                               gateway=gateway)
                assert service.total_errors == 0
                results.append((core.iteration, core.parameters.copy()))
        (plain_iter, plain_params), (gw_iter, gw_params) = results
        assert plain_iter == gw_iter
        assert np.array_equal(plain_params, gw_params)

    def test_batching_collapses_http_traffic(self):
        """Shared epoch check-outs + batched uplinks: a segment of D
        devices costs ~2 requests per epoch instead of 2·D."""
        num_devices, num_rounds = 4, 3
        core = make_core()
        with CrowdService(core) as service:
            baseline = service.requests_served  # join traffic comes first
            gateway = EdgeGateway(service.url, flush_size=num_devices)
            devices = _drive_devices(
                service.url, num_devices=num_devices, num_rounds=num_rounds,
                gateway=gateway,
            )
            assert service.total_errors == 0
            # Every device completed every round, acked through the pool.
            assert all(d.rounds_completed == num_rounds for d in devices)
            assert core.iteration == num_devices * num_rounds
            # Gateway upstream traffic: one join + per epoch one checkout
            # and one batch POST — far below per-device traffic.
            per_device = 2 * num_devices * num_rounds
            assert gateway.requests_made == 1 + 2 * num_rounds
            assert gateway.requests_made < per_device
            assert gateway.stats.size_flushes == num_rounds
            assert gateway.stats.largest_flush == num_devices

    def test_epoch_cache_invalidates_on_flush(self):
        core = make_core()
        with CrowdService(core) as service:
            gateway = EdgeGateway(service.url, flush_size=2)
            from repro.core.protocol import CheckoutRequest

            client = ServiceClient(service.url)
            tokens = {d: client.join(d) for d in (0, 1)}
            first = gateway.checkout(CheckoutRequest(0, tokens[0], 0.0))
            again = gateway.checkout(CheckoutRequest(1, tokens[1], 0.5))
            # Cached epoch: same parameters object, caller-facing ids kept.
            assert again.parameters is first.parameters
            assert again.device_id == 1
            for d in (0, 1):
                gateway.add(_checkin(d, tokens[d], first))
            after = gateway.checkout(CheckoutRequest(0, tokens[0], 1.0))
            assert after.server_iteration > first.server_iteration

    def test_stop_propagates_through_the_gateway(self):
        core = make_core(max_iterations=2)
        with CrowdService(core) as service:
            gateway = EdgeGateway(service.url, flush_size=2)
            from repro.core.protocol import CheckoutRequest

            client = ServiceClient(service.url)
            tokens = {d: client.join(d) for d in (0, 1)}
            base = gateway.checkout(CheckoutRequest(0, tokens[0], 0.0))
            acks = [
                gateway.add(_checkin(d, tokens[d], base)) for d in (0, 1)
            ][-1]
            assert len(acks) == 2
            assert gateway.stopped  # the batch result carried the stop
            with pytest.raises(RemoteServiceError) as caught:
                gateway.checkout(CheckoutRequest(0, tokens[0], 1.0))
            assert caught.value.code == wire.ErrorCode.STOPPED
            assert gateway.pending == 0

    def test_gateway_enrollment_uses_the_reserved_id(self):
        core = make_core()
        with CrowdService(core) as service:
            gateway = EdgeGateway(service.url)
            from repro.core.protocol import CheckoutRequest

            client = ServiceClient(service.url)
            token = client.join(7)
            gateway.checkout(CheckoutRequest(7, token, 0.0))
            assert core.registry.is_registered(GATEWAY_DEVICE_ID)


def _checkin(device_id, token, checkout):
    from repro.core.protocol import CheckinMessage

    return CheckinMessage(
        device_id=device_id, token=token,
        gradient=np.ones(checkout.parameters.shape[0]),
        num_samples=1, noisy_error_count=0,
        noisy_label_counts=np.zeros(CLASSES, dtype=np.int64),
        checkout_iteration=checkout.server_iteration,
    )
