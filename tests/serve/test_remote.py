"""Remote deployment path: HttpTransport, RemoteDevice, simulator parity.

The headline contract of the API redesign: the *same* device code and
the *same* simulator drive an in-process core and a live HTTP service,
and a sequential run is bit-identical across the two.
"""

import threading

import numpy as np
import pytest

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.protocol import CheckoutRequest
from repro.core.server_core import ServerCore
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import assert_traces_identical
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import (
    CrowdService,
    HttpTransport,
    RemoteDevice,
    RemoteServerCore,
    ServiceClient,
)
from repro.simulation import CrowdSimulator, SimulationConfig
from repro.utils.exceptions import ConfigurationError

NUM_DEVICES = 5
DIM, CLASSES = 50, 10


def make_core(max_iterations, learning_rate=1.0, target_error=None):
    """A server core matching what CrowdSimulator builds for its runs."""
    model = MulticlassLogisticRegression(DIM, CLASSES)
    optimizer = paper_sgd(
        model.init_parameters(),
        learning_rate_constant=learning_rate,
        projection_radius=100.0,
    )
    return ServerCore(
        model, optimizer,
        ServerConfig(max_iterations=max_iterations, target_error=target_error),
    )


@pytest.fixture(scope="module")
def data():
    train, test = make_mnist_like(num_train=250, num_test=60, seed=0)
    parts = iid_partition(train, NUM_DEVICES, np.random.default_rng(0))
    return parts, test


class TestSimulatorParity:
    def test_http_run_bit_identical_to_direct(self, data):
        """The acceptance gate: a full training run over live HTTP ends
        with exactly the parameters of the in-process fused run."""
        parts, test = data
        total = sum(len(p) for p in parts)
        base = dict(num_devices=NUM_DEVICES, batch_size=4, num_snapshots=5)
        model = MulticlassLogisticRegression(DIM, CLASSES)

        direct = CrowdSimulator(
            model, parts, test,
            SimulationConfig(transport="direct", **base), seed=3,
        ).run()

        with CrowdService(make_core(total + 1)) as service:
            simulator = CrowdSimulator(
                model, parts, test,
                SimulationConfig(
                    transport="http", server_url=service.url, **base
                ),
                seed=3,
            )
            # The server lives remotely; the run drives its proxy.
            assert isinstance(simulator.core, RemoteServerCore)
            assert simulator.config.resolved_transport() == "http"
            http = simulator.run()
            assert service.total_errors == 0

        assert_traces_identical(direct, http, context="http_vs_direct")
        assert np.array_equal(direct.final_parameters, http.final_parameters)

    def test_http_run_respects_remote_stop(self, data):
        """A server-side T_max bound ends the remote run cleanly."""
        parts, test = data
        with CrowdService(make_core(max_iterations=7)) as service:
            trace = CrowdSimulator(
                MulticlassLogisticRegression(DIM, CLASSES), parts, test,
                SimulationConfig(
                    num_devices=NUM_DEVICES, batch_size=4, num_snapshots=4,
                    transport="http", server_url=service.url,
                ),
                seed=3,
            ).run()
        assert trace.server_iterations == 7
        assert trace.stop_reason == "max_iterations"

    def test_already_stopped_server_ends_run_immediately(self, data):
        """A stop discovered at *checkout* time (not via a check-in) must
        still be recorded — the run reports the server's reason instead
        of replaying every arrival as a futile round."""
        parts, test = data
        core = make_core(max_iterations=1)
        with CrowdService(core) as service:
            # Exhaust the task before the simulated crowd starts.
            client = ServiceClient(service.url)
            token = client.join(999)
            response = client.checkout(CheckoutRequest(999, token, 0.0))
            from repro.core.protocol import CheckinMessage

            client.checkins([CheckinMessage(
                device_id=999, token=token,
                gradient=np.zeros(response.parameters.shape[0]),
                num_samples=1, noisy_error_count=0,
                noisy_label_counts=np.zeros(CLASSES, dtype=np.int64),
                checkout_iteration=0,
            )])
            assert core.stopped
            requests_before = service.requests_served
            trace = CrowdSimulator(
                MulticlassLogisticRegression(DIM, CLASSES), parts, test,
                SimulationConfig(
                    num_devices=NUM_DEVICES, batch_size=4, num_snapshots=4,
                    transport="http", server_url=service.url,
                ),
                seed=3,
            ).run()
            # One rejected checkout ended the crowd: no per-arrival storm.
            assert service.requests_served - requests_before < 3 * NUM_DEVICES
        assert trace.stop_reason == "max_iterations"
        assert trace.server_iterations == 1  # the pre-run update, fetched

    def test_model_mismatch_fails_fast(self, data):
        parts, test = data
        with CrowdService(make_core(100)) as service:
            with pytest.raises(ConfigurationError, match="parameters"):
                CrowdSimulator(
                    MulticlassLogisticRegression(DIM + 1, CLASSES),
                    parts, test,
                    SimulationConfig(
                        num_devices=NUM_DEVICES, transport="http",
                        server_url=service.url,
                    ),
                    seed=0,
                )


class TestRemoteDevice:
    def test_rounds_until_server_stop(self):
        core = make_core(max_iterations=3)
        with CrowdService(core) as service:
            transport = HttpTransport(service.url)
            remote = RemoteDevice.join(
                transport, 0, MulticlassLogisticRegression(DIM, CLASSES),
                DeviceConfig.default(batch_size=2, num_classes=CLASSES),
                np.random.default_rng(0),
            )
            rng = np.random.default_rng(1)
            acks = []
            for _ in range(10):
                if remote.observe(rng.normal(size=DIM), int(rng.integers(CLASSES))):
                    acks.append(remote.run_round())
            assert remote.stopped
            assert remote.rounds_completed == 3
            assert core.iteration == 3
            # The client carried every leg of the completed rounds: one
            # join, then a check-out and a check-in per round.
            assert remote.client.requests_sent >= 1 + 2 * 3

    def test_transient_checkin_failure_is_retried_not_lost(self):
        """The buffer is consumed computing a check-in, so a transport
        blip between checkout and check-in must keep the message for
        re-upload instead of discarding those samples' contribution."""
        from repro.serve.client import RemoteServiceError
        from repro.serve import wire

        core = make_core(max_iterations=100)
        with CrowdService(core) as service:
            transport = HttpTransport(service.url)
            remote = RemoteDevice.join(
                transport, 0, MulticlassLogisticRegression(DIM, CLASSES),
                DeviceConfig.default(batch_size=2, num_classes=CLASSES),
                np.random.default_rng(0),
            )
            rng = np.random.default_rng(1)
            while not remote.observe(rng.normal(size=DIM),
                                     int(rng.integers(CLASSES))):
                pass
            real_checkins = transport.client.checkins

            def flaky_checkins(messages):
                raise RemoteServiceError(
                    wire.ErrorCode.UNREACHABLE, "synthetic blip")

            transport.client.checkins = flaky_checkins
            try:
                with pytest.raises(RemoteServiceError):
                    remote.run_round()
            finally:
                transport.client.checkins = real_checkins
            assert core.iteration == 0  # nothing applied yet
            # Next call re-uploads the stranded message first.
            ack = remote.run_round()
            assert ack is not None
            assert core.iteration == 1
            assert remote.rounds_completed == 1

    def test_concurrent_devices_zero_server_errors(self):
        """Acceptance criterion: >= 8 concurrent devices, no 5xx."""
        num_devices = 8
        core = make_core(max_iterations=10**6)
        failures = []

        def drive(device_index, transport):
            try:
                rng = np.random.default_rng(200 + device_index)
                remote = RemoteDevice.join(
                    transport, device_index,
                    MulticlassLogisticRegression(DIM, CLASSES),
                    DeviceConfig.default(batch_size=3, num_classes=CLASSES),
                    np.random.default_rng(device_index),
                )
                for _ in range(15):
                    if remote.observe(rng.normal(size=DIM),
                                      int(rng.integers(CLASSES))):
                        assert remote.run_round() is not None
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        with CrowdService(core) as service:
            transport = HttpTransport(ServiceClient(service.url))
            threads = [
                threading.Thread(target=drive, args=(m, transport))
                for m in range(num_devices)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures
            assert service.total_errors == 0
            # Aggregate invariant: every completed round became exactly
            # one applied update (15 samples / b=3 -> 5 rounds each).
            assert core.iteration == num_devices * 5


class TestRemoteServerCore:
    def test_single_message_endpoints_keep_wire_semantics(self):
        with CrowdService(make_core(100)) as service:
            remote = RemoteServerCore(ServiceClient(service.url))
            token = remote.register_device(0)
            from repro.core.protocol import CheckinMessage

            def checkin_with(message_token):
                def complete(response):
                    assert response.server_iteration == remote.iteration
                    return CheckinMessage(
                        device_id=0, token=message_token,
                        gradient=np.zeros(response.parameters.shape[0]),
                        num_samples=1, noisy_error_count=0,
                        noisy_label_counts=np.zeros(CLASSES, dtype=np.int64),
                        checkout_iteration=response.server_iteration,
                    )
                return complete

            request = CheckoutRequest(0, token, 0.0)
            accepted = remote.serve_round((request,), checkin_with(token))
            assert accepted.responses[0].server_iteration == 0
            assert accepted.acks[0].server_iteration == 1
            assert remote.iteration == 1
            # A forged check-in comes back as a None slot — serve_round
            # mirrors ServerCore's non-raising contract — and is not applied.
            forged = remote.serve_round((request,), checkin_with("forged"))
            assert forged.responses[0] is not None
            assert forged.messages[0].token == "forged"
            assert forged.acks[0] is None
            assert not forged.stop.stopped
            assert remote.iteration == 1

    def test_parameters_fetches_live_vector(self):
        core = make_core(100)
        with CrowdService(core) as service:
            remote = RemoteServerCore(ServiceClient(service.url))
            assert np.array_equal(remote.parameters, core.parameters)
