"""Remote round: a full Crowd-ML training run over live HTTP.

Proves the promise of the transport seam: the *same* simulator, device
runtime, and protocol core drive an in-process run and a run against a
real HTTP server — and (sequentially) the two produce **bit-identical**
learned parameters, because floats survive the JSON wire format exactly
and the server applies the same updates in the same order.

Three acts:

1. Reference run: ``CrowdSimulator`` with fused in-process rounds
   (``transport="direct"``).
2. The same spec over the wire: a :class:`~repro.serve.CrowdService`
   hosting an identically configured ``ServerCore`` on a loopback port
   (exactly what ``repro-serve`` launches), driven through
   ``SimulationConfig(transport="http", server_url=...)``.
3. Concurrent smoke: 8 :class:`~repro.serve.RemoteDevice` threads
   hammering one fresh service at once — arrival order is now
   scheduling-dependent (the documented parity caveat), so the check is
   the aggregate invariant: zero server errors and
   ``iterations == accepted check-ins``.

Usage::

    PYTHONPATH=src python examples/remote_round.py

Point act 2 at an externally launched server instead (it must host the
matching spec; the script prints the ``repro-serve`` line to use)::

    PYTHONPATH=src python examples/remote_round.py --server-url http://127.0.0.1:8900
"""

from __future__ import annotations

import argparse
import threading

import numpy as np

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.server_core import ServerCore
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import CrowdService, HttpTransport, RemoteDevice
from repro.simulation import CrowdSimulator, SimulationConfig

# One spec, shared by every act (and by the repro-serve line below).
NUM_DEVICES = 8
BATCH_SIZE = 5
NUM_FEATURES = 50
NUM_CLASSES = 10
LEARNING_RATE_CONSTANT = 1.0
PROJECTION_RADIUS = 100.0
NUM_TRAIN, NUM_TEST = 800, 200
SEED = 7


def build_core(max_iterations: int) -> ServerCore:
    """The server-side task — identical to what CrowdSimulator builds."""
    model = MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)
    optimizer = paper_sgd(
        model.init_parameters(),
        learning_rate_constant=LEARNING_RATE_CONSTANT,
        projection_radius=PROJECTION_RADIUS,
    )
    return ServerCore(model, optimizer, ServerConfig(max_iterations=max_iterations))


def simulator(config: SimulationConfig, parts, test) -> CrowdSimulator:
    return CrowdSimulator(
        MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES),
        parts, test, config, seed=SEED,
    )


def concurrent_smoke(url: str) -> None:
    """Act 3: >= 8 devices from independent threads, one live service."""
    transport = HttpTransport(url)
    rng = np.random.default_rng(0)
    data = rng.normal(size=(NUM_DEVICES, 40, NUM_FEATURES))
    labels = rng.integers(0, NUM_CLASSES, size=(NUM_DEVICES, 40))
    failures: list[Exception] = []

    def drive(device_index: int) -> None:
        try:
            remote = RemoteDevice.join(
                transport, device_index,
                MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES),
                DeviceConfig.default(batch_size=BATCH_SIZE, num_classes=NUM_CLASSES),
                np.random.default_rng(100 + device_index),
            )
            for sample in range(data.shape[1]):
                if remote.observe(data[device_index, sample],
                                  int(labels[device_index, sample])):
                    remote.run_round()
        except Exception as error:  # noqa: BLE001 - report, don't hang the join
            failures.append(error)

    threads = [
        threading.Thread(target=drive, args=(m,)) for m in range(NUM_DEVICES)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--server-url", default=None,
        help="drive an externally launched repro-serve instead of an "
             "in-process loopback service (must host the matching spec)",
    )
    args = parser.parse_args()

    train, test = make_mnist_like(num_train=NUM_TRAIN, num_test=NUM_TEST, seed=0)
    parts = iid_partition(train, NUM_DEVICES, np.random.default_rng(0))
    max_iterations = sum(len(p) for p in parts) + 1

    print(f"-- act 1: in-process reference (fused rounds), M={NUM_DEVICES}, "
          f"b={BATCH_SIZE}")
    base = dict(num_devices=NUM_DEVICES, batch_size=BATCH_SIZE, num_snapshots=8)
    direct = simulator(
        SimulationConfig(transport="direct", **base), parts, test
    ).run()
    print(f"   final error {direct.curve.final_error:.3f}, "
          f"{direct.server_iterations} updates")

    print("-- act 2: the same run over live HTTP")
    print(f"   (equivalent external server: repro-serve "
          f"--num-features {NUM_FEATURES} --num-classes {NUM_CLASSES} "
          f"--learning-rate-constant {LEARNING_RATE_CONSTANT} "
          f"--projection-radius {PROJECTION_RADIUS} "
          f"--max-iterations {max_iterations})")
    service = None
    if args.server_url is None:
        service = CrowdService(build_core(max_iterations)).start()
        url = service.url
        print(f"   started loopback service at {url}")
    else:
        url = args.server_url
    try:
        http = simulator(
            SimulationConfig(transport="http", server_url=url, **base),
            parts, test,
        ).run()
    finally:
        if service is not None:
            service.stop()
    print(f"   final error {http.curve.final_error:.3f}, "
          f"{http.server_iterations} updates")
    if service is not None:
        print(f"   service answered {service.requests_served} requests, "
              f"{service.total_errors} errors")

    identical = np.array_equal(direct.final_parameters, http.final_parameters)
    print(f"   final parameters bit-identical to the fused run: {identical}")
    if not identical:
        print("   !! parity violated — HTTP and in-process runs diverged")
        return 1

    print(f"-- act 3: concurrent smoke — {NUM_DEVICES} RemoteDevice threads")
    smoke_core = build_core(10**6)
    with CrowdService(smoke_core) as smoke_service:
        concurrent_smoke(smoke_service.url)
        iterations = smoke_core.iteration
        errors = smoke_service.total_errors
    print(f"   {iterations} concurrent updates applied, "
          f"{errors} server errors")
    if errors:
        print("   !! the service returned errors under concurrency")
        return 1
    print("ok: full HTTP training run matches in-process bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
