"""Serve smoke + throughput: a live ``repro-serve`` process under load.

The CI ``serve-smoke`` job runs this module.  It spawns the real
``repro-serve`` console entry point (a subprocess, loopback port 0),
then:

1. **Parity gate** — a full ``CrowdSimulator`` training run over
   ``transport="http"`` against the live process must end
   **bit-identical** (final parameters, curve, counters) to the
   in-process fused (``transport="direct"``) run of the same spec.  This is the assertion the job gates on.
2. **Concurrent smoke** — ≥ 8 :class:`~repro.serve.RemoteDevice`
   threads drive the same server at once; the run must finish with zero
   server-side errors and ``iterations == accepted check-ins``.
3. **Throughput** — sequential and concurrent HTTP round trips per
   second, published to ``benchmarks/results/serve_throughput.json``.
   Wall-clock numbers are recorded, **not** asserted (shared-runner
   jitter must not flake CI).
4. **Gateway tier** — a 256-device crowd behind
   :class:`~repro.gateway.edge.EdgeGateway`\\ s, swept over
   devices-per-gateway.  Two assertions gate: the batched tier must
   make **exactly** ``gateways × (1 + 2 × rounds)`` upstream requests
   (and, as a jitter-proof sanity margin, clear **≥ 2×** the per-device
   rounds/s) with zero server errors, and a sequential pass-through
   gateway must land on **bit-identical** final parameters to an
   in-process ``Device``/``ServerCore`` replay of the same schedule.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

import numpy as np

from benchmarks._harness import RESULTS_DIR, publish_table
from repro.core.config import DeviceConfig, ServerConfig
from repro.core.device import Device
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.core.server_core import ServerCore
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import assert_traces_identical
from repro.gateway import TwoTierTopology
from repro.gateway.edge import EdgeGateway
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import HttpTransport, RemoteDevice, ServiceClient
from repro.serve.launch import launch, shut_down
from repro.simulation import CrowdSimulator, SimulationConfig

DIM, CLASSES = 50, 10
NUM_DEVICES = 8
BATCH_SIZE = 5
LEARNING_RATE = 1.0
PROJECTION_RADIUS = 100.0
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _scale():
    # Sized at ~1-2 ms per loopback round so each timed arm runs a few
    # seconds at benchmark scale (2000 sequential rounds, 300 per
    # concurrent device).
    if os.environ.get("REPRO_SCALE", "benchmark") == "smoke":
        return 400, 40  # training samples, smoke-round samples per device
    return 10000, 1500


def spawn_server(max_iterations: int, extra: tuple = ()):
    """Launch the actual repro-serve entry point; returns (process, url).

    The CLI binds its listener before it announces, so the URL
    :func:`repro.serve.launch.launch` returns is already reachable.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return launch(
        ["--num-features", str(DIM), "--num-classes", str(CLASSES),
         "--learning-rate-constant", str(LEARNING_RATE),
         "--projection-radius", str(PROJECTION_RADIUS),
         "--max-iterations", str(max_iterations),
         "--port", "0", *extra],
        env, timeout=30.0,
    )


def spawn_sharded_server(num_workers: int, state_dir: str,
                         max_iterations: int):
    """Launch ``repro-serve --workers N``; returns (process, frontend_url)."""
    return spawn_server(
        max_iterations,
        extra=("--workers", str(num_workers), "--state-dir", state_dir),
    )


def scrape_latency_percentiles(url: str) -> dict:
    """Per-endpoint p50/p95/p99 (ms) from a live ``/v1/metrics`` scrape.

    The server must have been spawned with ``--metrics``; percentiles
    are exact over the histogram's retention window (single process).
    """
    snapshot = ServiceClient(url).metrics_snapshot()
    assert snapshot["enabled"], "scrape target was not spawned with --metrics"
    out: dict = {}
    for hist in snapshot["histograms"]:
        if hist["name"] != "service_request_seconds":
            continue
        endpoint = hist["labels"].get("endpoint", "other")
        if not hist["count"]:
            continue
        pcts = hist["percentiles"]
        out[endpoint] = {
            "count": hist["count"],
            "p50_ms": round(pcts["p50"] * 1e3, 3),
            "p95_ms": round(pcts["p95"] * 1e3, 3),
            "p99_ms": round(pcts["p99"] * 1e3, 3),
        }
    return out


def test_serve_smoke_and_throughput():
    num_train, smoke_samples = _scale()
    train, test = make_mnist_like(num_train=num_train, num_test=100, seed=0)
    parts = iid_partition(train, NUM_DEVICES, np.random.default_rng(0))
    total = sum(len(p) for p in parts)
    base = dict(num_devices=NUM_DEVICES, batch_size=BATCH_SIZE, num_snapshots=4)
    model = MulticlassLogisticRegression(DIM, CLASSES)

    # In-process reference (the parity target).
    direct = CrowdSimulator(
        model, parts, test, SimulationConfig(transport="direct", **base), seed=3,
    ).run()

    process, url = spawn_server(max_iterations=total + 1)
    try:
        start = time.perf_counter()
        http = CrowdSimulator(
            model, parts, test,
            SimulationConfig(transport="http", server_url=url, **base),
            seed=3,
        ).run()
        sequential_elapsed = time.perf_counter() - start

        # THE GATE: learning-state parity with the fused run, bit for bit.
        assert_traces_identical(direct, http, context="serve_smoke")
        assert np.array_equal(direct.final_parameters, http.final_parameters)
        status = ServiceClient(url).status()
        assert status.iteration == direct.server_iterations
        sequential_rounds = http.communication.checkins_delivered
        sequential_rps = sequential_rounds / max(sequential_elapsed, 1e-9)
    finally:
        shut_down(process)

    # Concurrent multi-client smoke on a fresh server — observed, so the
    # published table carries per-endpoint latency percentiles (PR 9).
    process, url = spawn_server(max_iterations=10**7, extra=("--metrics",))
    try:
        transport = HttpTransport(ServiceClient(url))
        failures: list[Exception] = []

        def drive(device_index: int) -> None:
            try:
                rng = np.random.default_rng(300 + device_index)
                remote = RemoteDevice.join(
                    transport, device_index, MulticlassLogisticRegression(DIM, CLASSES),
                    DeviceConfig.default(batch_size=BATCH_SIZE, num_classes=CLASSES),
                    np.random.default_rng(device_index),
                )
                for _ in range(smoke_samples):
                    if remote.observe(rng.normal(size=DIM),
                                      int(rng.integers(CLASSES))):
                        assert remote.run_round() is not None
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [
            threading.Thread(target=drive, args=(m,)) for m in range(NUM_DEVICES)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        concurrent_elapsed = time.perf_counter() - start

        assert not failures, failures[0]
        expected_rounds = NUM_DEVICES * (smoke_samples // BATCH_SIZE)
        status = ServiceClient(url).status()
        # Zero server errors + every completed round applied exactly once.
        assert status.rejected_messages == 0
        assert status.iteration == expected_rounds
        concurrent_rps = expected_rounds / max(concurrent_elapsed, 1e-9)
        latency = scrape_latency_percentiles(url)
        assert latency.get("checkins", {}).get("count", 0) > 0
    finally:
        shut_down(process)

    metrics = {
        "sequential": {
            "rounds": sequential_rounds,
            "seconds": round(sequential_elapsed, 4),
            "rounds_per_sec": round(sequential_rps, 1),
            "bit_identical_to_direct": True,
        },
        "concurrent": {
            "devices": NUM_DEVICES,
            "rounds": expected_rounds,
            "seconds": round(concurrent_elapsed, 4),
            "rounds_per_sec": round(concurrent_rps, 1),
            "server_errors": 0,
            "latency_percentiles": latency,
        },
    }
    lines = [
        "serve_throughput (loopback repro-serve subprocess; timing non-gating)",
        f"  sequential : {sequential_rounds} rounds in "
        f"{sequential_elapsed:.2f}s = {sequential_rps:.0f} rounds/s "
        f"(bit-identical to the in-process fused run)",
        f"  concurrent : {NUM_DEVICES} devices x "
        f"{expected_rounds // NUM_DEVICES} rounds in "
        f"{concurrent_elapsed:.2f}s = {concurrent_rps:.0f} rounds/s "
        f"(0 server errors)",
    ]
    for endpoint in sorted(latency):
        row = latency[endpoint]
        lines.append(
            f"    {endpoint:<9s}: p50 {row['p50_ms']:.2f}ms  "
            f"p95 {row['p95_ms']:.2f}ms  p99 {row['p99_ms']:.2f}ms  "
            f"({row['count']} requests)"
        )
    _publish_merged("\n".join(lines), metrics)


# --------------------------------------------------------------------- #
# Gateway tier: 256 devices behind EdgeGateways, devices-per-gateway     #
# sweep.  The gate is the request count, asserted exactly: the batched   #
# tier collapses 2·N data requests per round into 2 per gateway.  What   #
# that buys in wall clock depends on what a request costs (≈ 6–11× at    #
# ~1 ms per loopback request), so the speedup is recorded and only a 2×  #
# margin that survives any shared-runner jitter is asserted beside it.   #
# --------------------------------------------------------------------- #

CROWD_DEVICES = 256
CROWD_BATCH = 2
DEVICES_PER_GATEWAY = (16, 64, 256)


def _crowd_rounds() -> int:
    return 2 if os.environ.get("REPRO_SCALE", "benchmark") == "smoke" else 8


def _publish_merged(text: str, metrics: dict) -> None:
    """Publish under the single ``serve_throughput`` name, merging with
    whatever arms an earlier test in this module already wrote — the CI
    artifact carries the HTTP arms and the gateway arms side by side."""
    json_path = os.path.join(RESULTS_DIR, "serve_throughput.json")
    txt_path = os.path.join(RESULTS_DIR, "serve_throughput.txt")
    arms: dict = {}
    existing_text = ""
    if os.path.exists(json_path):
        with open(json_path) as handle:
            arms = json.load(handle).get("arms", {})
    if os.path.exists(txt_path):
        with open(txt_path) as handle:
            existing_text = handle.read().rstrip("\n")
    arms = {key: value for key, value in arms.items() if key not in metrics}
    arms.update(metrics)
    if existing_text and not text.startswith(existing_text):
        text = existing_text + "\n" + text
    publish_table("serve_throughput", text, arms)


def _drive_crowd(url: str, num_rounds: int, gateways=None, assignment=None,
                 seed: int = 50):
    """One fixed round-robin schedule of device rounds over HTTP.

    Same schedule (device rngs, data streams, visit order) regardless of
    routing, so arms differ only in how the traffic reaches the server.
    Returns (devices, data_requests_made, rounds_elapsed); the timed
    window covers the rounds plus trailing flushes — enrollment is
    identical setup in every arm and stays outside it.
    """
    transport = HttpTransport(url)
    model = MulticlassLogisticRegression(DIM, CLASSES)
    devices = []
    for d in range(CROWD_DEVICES):
        gateway = gateways[assignment[d]] if gateways is not None else None
        devices.append(RemoteDevice.join(
            transport, d, model,
            DeviceConfig.default(batch_size=CROWD_BATCH, num_classes=CLASSES),
            np.random.default_rng(seed + d),
            gateway=gateway,
        ))
    streams = [np.random.default_rng(7000 + d) for d in range(CROWD_DEVICES)]
    start = time.perf_counter()
    for _ in range(num_rounds):
        for device, stream in zip(devices, streams):
            while not device.observe(
                stream.normal(size=DIM), int(stream.integers(CLASSES))
            ):
                pass
            device.run_round()
    if gateways is not None:
        for gateway in gateways:
            if not gateway.stopped:
                gateway.flush()
    elapsed = time.perf_counter() - start
    if gateways is not None:
        requests = sum(g.requests_made for g in gateways)
    else:
        # Fallback path: one checkout + one single-message POST per round.
        requests = 2 * CROWD_DEVICES * num_rounds
    return devices, requests, elapsed


def _direct_reference(num_rounds: int, seed: int = 50) -> ServerCore:
    """In-process Device + ServerCore replay of ``_drive_crowd``'s
    schedule — the fused-round parity target."""
    model = MulticlassLogisticRegression(DIM, CLASSES)
    core = ServerCore(
        model,
        paper_sgd(model.init_parameters(),
                  learning_rate_constant=LEARNING_RATE,
                  projection_radius=PROJECTION_RADIUS),
        ServerConfig(max_iterations=10**7),
    )
    devices = [
        Device(d, model,
               DeviceConfig.default(batch_size=CROWD_BATCH, num_classes=CLASSES),
               core.register_device(d), np.random.default_rng(seed + d))
        for d in range(CROWD_DEVICES)
    ]
    streams = [np.random.default_rng(7000 + d) for d in range(CROWD_DEVICES)]
    for _ in range(num_rounds):
        for device, stream in zip(devices, streams):
            while not device.observe(
                stream.normal(size=DIM), int(stream.integers(CLASSES))
            ):
                pass
            device.mark_checkout_requested()
            response = core.handle_checkout(
                CheckoutRequest(device.device_id, device.token, 0.0)
            )
            result = device.complete_checkout(
                response.parameters, response.server_iteration
            )
            core.handle_checkins([result.message])
    return core


def test_gateway_throughput():
    num_rounds = _crowd_rounds()
    total_rounds = CROWD_DEVICES * num_rounds
    metrics: dict = {}
    lines = [
        f"serve_throughput gateway tier ({CROWD_DEVICES} devices x "
        f"{num_rounds} rounds; request-count gate asserted)",
    ]

    # Arm 0 — per-device HTTP: every round its own checkout + POST.
    process, url = spawn_server(max_iterations=10**7)
    try:
        devices, baseline_requests, baseline_elapsed = _drive_crowd(
            url, num_rounds
        )
        status = ServiceClient(url).status()
        assert status.rejected_messages == 0
        assert status.iteration == total_rounds
        assert all(d.rounds_completed == num_rounds for d in devices)
    finally:
        shut_down(process)
    baseline_rps = total_rounds / max(baseline_elapsed, 1e-9)
    metrics["per_device_http"] = {
        "devices": CROWD_DEVICES,
        "rounds": total_rounds,
        "requests": baseline_requests,
        "seconds": round(baseline_elapsed, 4),
        "rounds_per_sec": round(baseline_rps, 1),
        "requests_per_sec": round(
            baseline_requests / max(baseline_elapsed, 1e-9), 1),
        "server_errors": 0,
    }
    lines.append(
        f"  per-device HTTP      : {total_rounds} rounds / "
        f"{baseline_requests} requests in {baseline_elapsed:.2f}s = "
        f"{baseline_rps:.0f} rounds/s"
    )

    # Arms 1..k — the gateway tier, swept over devices-per-gateway.
    speedups = {}
    for dpg in DEVICES_PER_GATEWAY:
        num_gateways = CROWD_DEVICES // dpg
        assignment = TwoTierTopology(
            num_gateways=num_gateways, assignment="block"
        ).assign(CROWD_DEVICES)
        process, url = spawn_server(max_iterations=10**7)
        try:
            gateways = [
                EdgeGateway(url, flush_size=dpg, device_id=2**31 - 1 - g)
                for g in range(num_gateways)
            ]
            devices, requests, elapsed = _drive_crowd(
                url, num_rounds, gateways, assignment
            )
            status = ServiceClient(url).status()
            # Zero server errors, every round pooled, flushed, and acked.
            assert status.rejected_messages == 0
            assert status.iteration == total_rounds
            assert all(d.rounds_completed == num_rounds for d in devices)
            # Shared epoch check-outs: ~2 upstream requests per gateway
            # per round instead of 2·dpg.
            assert requests == num_gateways * (1 + 2 * num_rounds)
        finally:
            shut_down(process)
        rps = total_rounds / max(elapsed, 1e-9)
        speedups[dpg] = rps / baseline_rps
        metrics[f"gateway_dpg_{dpg}"] = {
            "devices": CROWD_DEVICES,
            "gateways": num_gateways,
            "devices_per_gateway": dpg,
            "rounds": total_rounds,
            "requests": requests,
            "seconds": round(elapsed, 4),
            "rounds_per_sec": round(rps, 1),
            "requests_per_sec": round(requests / max(elapsed, 1e-9), 1),
            "speedup_vs_per_device": round(speedups[dpg], 1),
            "server_errors": 0,
        }
        lines.append(
            f"  gateway dpg={dpg:<4d}     : {total_rounds} rounds / "
            f"{requests} requests in {elapsed:.2f}s = {rps:.0f} rounds/s "
            f"({speedups[dpg]:.1f}x per-device)"
        )

    # The request-count gate above is the claim; this is its sanity
    # margin in wall clock.
    best = max(speedups.values())
    assert best >= 2.0, (
        f"gateway tier speedup {best:.1f}x < 2x over per-device HTTP "
        f"(per-device {baseline_rps:.0f} rounds/s; sweep {speedups})"
    )

    # Parity arm — sequential pass-through gateway (flush_size=1,
    # forwarded check-outs) vs an in-process Device/ServerCore replay of
    # the identical schedule: bit-identical final parameters.
    reference = _direct_reference(num_rounds)
    process, url = spawn_server(max_iterations=10**7)
    try:
        gateway = EdgeGateway(url, flush_size=1, share_checkouts=False)
        devices, _, _ = _drive_crowd(
            url, num_rounds, [gateway], [0] * CROWD_DEVICES
        )
        status = ServiceClient(url).status(include_parameters=True)
        assert status.rejected_messages == 0
        assert status.iteration == reference.iteration == total_rounds
        assert np.array_equal(status.parameters, reference.parameters)
    finally:
        shut_down(process)
    metrics["gateway_parity"] = {
        "devices": CROWD_DEVICES,
        "rounds": total_rounds,
        "bit_identical_to_direct": True,
    }
    lines.append(
        "  gateway parity       : flush_size=1 pass-through bit-identical "
        "to in-process Device/ServerCore replay"
    )
    _publish_merged("\n".join(lines), metrics)


# --------------------------------------------------------------------- #
# Multi-worker tier: repro-serve --workers N behind the shard front end. #
# Timing is recorded, not asserted; the gates are correctness-shaped:    #
# zero rejected messages, zero front-end internal errors, and the shard  #
# iteration totals summing to the driven round count (exactly-once).     #
# --------------------------------------------------------------------- #

SHARD_WORKERS = 2


def _sharded_rounds() -> int:
    return 40 if os.environ.get("REPRO_SCALE", "benchmark") == "smoke" else 1500


def test_multi_worker_throughput():
    samples_per_device = _sharded_rounds()
    expected_rounds = NUM_DEVICES * (samples_per_device // BATCH_SIZE)
    with tempfile.TemporaryDirectory(prefix="serve-shards-") as state_dir:
        process, url = spawn_sharded_server(
            SHARD_WORKERS, state_dir, max_iterations=10**7
        )
        try:
            transport = HttpTransport(ServiceClient(url))
            failures: list[Exception] = []

            def drive(device_index: int) -> None:
                try:
                    rng = np.random.default_rng(600 + device_index)
                    remote = RemoteDevice.join(
                        transport, device_index,
                        MulticlassLogisticRegression(DIM, CLASSES),
                        DeviceConfig.default(batch_size=BATCH_SIZE,
                                             num_classes=CLASSES),
                        np.random.default_rng(device_index),
                    )
                    for _ in range(samples_per_device):
                        if remote.observe(rng.normal(size=DIM),
                                          int(rng.integers(CLASSES))):
                            assert remote.run_round() is not None
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

            threads = [
                threading.Thread(target=drive, args=(m,))
                for m in range(NUM_DEVICES)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            elapsed = time.perf_counter() - start

            assert not failures, failures[0]
            status = ServiceClient(url).status()
            # Exactly-once across shards: aggregate iteration == rounds.
            assert status.rejected_messages == 0
            assert status.iteration == expected_rounds
            assert status.shards is not None
            assert len(status.shards) == SHARD_WORKERS
            assert sum(row["iteration"] for row in status.shards) \
                == expected_rounds
            per_shard = {row["shard"]: row["iteration"]
                         for row in status.shards}
        finally:
            # Exit 0 = every worker drained and flushed cleanly.
            assert shut_down(process, timeout=60.0) == 0

    rps = expected_rounds / max(elapsed, 1e-9)
    metrics = {
        "multi_worker": {
            "workers": SHARD_WORKERS,
            "devices": NUM_DEVICES,
            "rounds": expected_rounds,
            "per_shard_rounds": per_shard,
            "seconds": round(elapsed, 4),
            "rounds_per_sec": round(rps, 1),
            "server_errors": 0,
        },
    }
    text = (
        f"serve_throughput multi-worker tier ({SHARD_WORKERS} workers behind "
        "one shard front end; timing non-gating)\n"
        f"  multi-worker         : {NUM_DEVICES} devices x "
        f"{expected_rounds // NUM_DEVICES} rounds over {SHARD_WORKERS} "
        f"shards in {elapsed:.2f}s = {rps:.0f} rounds/s (0 server errors, "
        "aggregate iteration exact)"
    )
    _publish_merged(text, metrics)


# --------------------------------------------------------------------- #
# Keep-alive tier: one ServiceClient, one thread, many round trips.     #
# The reuse-ratio gate IS asserted (it is connection-count-driven and   #
# immune to runner jitter): a full run must ride a single pooled socket.#
# Recorded beside it, per endpoint: client-observed p50 next to the     #
# server's own (--metrics) p50, so the artifact shows what the hop costs.#
# --------------------------------------------------------------------- #


def _keepalive_rounds() -> int:
    return 40 if os.environ.get("REPRO_SCALE", "benchmark") == "smoke" else 2000


def test_keepalive_connection_reuse():
    num_rounds = _keepalive_rounds()
    model = MulticlassLogisticRegression(DIM, CLASSES)
    rng = np.random.default_rng(77)
    client_seconds = {"checkout": [], "checkins": []}
    process, url = spawn_server(max_iterations=10**7, extra=("--metrics",))
    try:
        client = ServiceClient(url, timeout=10.0)
        token = client.join(0)
        start = time.perf_counter()
        for seq in range(num_rounds):
            sent = time.perf_counter()
            response = client.checkout(CheckoutRequest(0, token, 0.0))
            client_seconds["checkout"].append(time.perf_counter() - sent)
            message = CheckinMessage(
                device_id=0, token=token,
                gradient=rng.normal(size=model.num_parameters),
                num_samples=BATCH_SIZE, noisy_error_count=0,
                noisy_label_counts=rng.integers(0, 5, size=CLASSES),
                checkout_iteration=response.server_iteration,
                checkin_seq=seq,
            )
            sent = time.perf_counter()
            client.checkins([message])
            client_seconds["checkins"].append(time.perf_counter() - sent)
        elapsed = time.perf_counter() - start
        status = client.status()
        assert status.iteration == num_rounds
        assert status.rejected_messages == 0
        server = scrape_latency_percentiles(url)
    finally:
        shut_down(process)

    # THE GATE: the whole run rides one pooled socket — the reuse ratio
    # equals the request count, not ~2 (one handshake per round trip).
    assert client.connections_opened == 1
    assert client.reconnects == 0
    assert client.reuse_ratio == client.requests_sent >= 2 * num_rounds

    # Client-observed beside server-observed, per endpoint: the gap is
    # the hop (codec, socket, scheduling), and a stall in it shows here.
    hop = {}
    for endpoint, seconds in client_seconds.items():
        assert server[endpoint]["count"] == num_rounds
        client_p50 = float(np.median(seconds)) * 1e3
        hop[endpoint] = {
            "client_p50_ms": round(client_p50, 3),
            "server_p50_ms": server[endpoint]["p50_ms"],
            "hop_ms": round(client_p50 - server[endpoint]["p50_ms"], 3),
        }

    rps = client.requests_sent / max(elapsed, 1e-9)
    metrics = {
        "keepalive": {
            "rounds": num_rounds,
            "requests": client.requests_sent,
            "connections": client.connections_opened,
            "reuse_ratio": round(client.reuse_ratio, 1),
            "reconnects": client.reconnects,
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(rps, 1),
            "latency_p50": hop,
        },
    }
    lines = [
        "serve_throughput keep-alive tier (single client thread; reuse "
        "gate asserted)",
        f"  keep-alive           : {client.requests_sent} requests / "
        f"{client.connections_opened} connection in {elapsed:.2f}s = "
        f"{rps:.0f} req/s (reuse ratio {client.reuse_ratio:.0f})",
    ]
    for endpoint, row in hop.items():
        lines.append(
            f"    {endpoint:<9s}: client p50 {row['client_p50_ms']:.2f}ms  "
            f"server p50 {row['server_p50_ms']:.2f}ms  "
            f"(hop {row['hop_ms']:.2f}ms)"
        )
    _publish_merged("\n".join(lines), metrics)
