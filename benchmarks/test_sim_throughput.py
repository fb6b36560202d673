"""Simulator throughput: event-driven transport scaling + fused rounds.

Two tables:

* ``sim_throughput`` — absolute samples/sec and heap-events per sample
  for crowds of M ∈ {10, 100, 1000} devices at the §IV-B3 operating
  point for a delayed network (b = 100, τ = 200Δ), where round trips
  must travel the event queue (:class:`SimulatedTransport`).
* ``protocol_throughput`` — the b = 1, τ = 0 protocol-bound row
  (figs. 4/7's setting): one full check-out/check-in round trip per
  sample.  The fused (``transport="direct"``) path is benchmarked
  against the event-driven path on the *same* configuration, and the
  run **gates on the equivalence assertion** — both styles must
  produce bit-identical traces.

Wall-clock numbers are recorded (via ``publish_table`` →
``benchmarks/results/*.json``) but not asserted, so a loaded CI machine
cannot flake the job.

``REPRO_SCALE=smoke`` shrinks the crowd list to {10, 100} with fewer
samples per device; the default ("benchmark") runs all three sizes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks._harness import publish_table
from repro.data import iid_partition, make_mnist_like
from repro.evaluation import assert_traces_identical
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

BATCH_SIZE = 100
DELAY_MULTIPLES = 200.0  # τ in Δ = 1/(M·F_s) units (Section V-C)
REPEATS = 3  # best-of-N wall clock; each repeat is a fresh identical run


def _scale():
    if os.environ.get("REPRO_SCALE", "benchmark") == "smoke":
        return (10, 100), 120  # crowd sizes, samples per device
    return (10, 100, 1000), 200


def _config(num_devices: int, batch_size: int = BATCH_SIZE,
            delay_multiples: float = DELAY_MULTIPLES,
            transport: str = "auto") -> SimulationConfig:
    probe = SimulationConfig(num_devices=num_devices)
    tau = probe.delay_in_sample_units(delay_multiples)
    return SimulationConfig(
        num_devices=num_devices,
        batch_size=batch_size,
        link_delays=LinkDelays.uniform(tau) if tau > 0 else LinkDelays.zero(),
        num_snapshots=4,
        transport=transport,
    )


def _run(parts, test, config):
    elapsed = None
    for _ in range(REPEATS):
        simulator = CrowdSimulator(
            MulticlassLogisticRegression(50, 10), parts, test, config, seed=0,
        )
        start = time.perf_counter()
        trace = simulator.run()
        this_time = time.perf_counter() - start
        elapsed = this_time if elapsed is None else min(elapsed, this_time)
    return trace, simulator.events_fired, elapsed


def _data(num_devices: int, samples_per_device: int):
    train, test = make_mnist_like(
        num_train=num_devices * samples_per_device, num_test=100)
    return iid_partition(train, num_devices, np.random.default_rng(0)), test


def test_sim_throughput():
    """Delayed-network scaling rows (event-driven transport)."""
    crowd_sizes, samples_per_device = _scale()
    rows = {}
    for num_devices in crowd_sizes:
        parts, test = _data(num_devices, samples_per_device)
        trace, events, elapsed = _run(parts, test, _config(num_devices))
        # Determinism gate: a repeat run must reproduce the trace exactly.
        repeat, _, _ = _run(parts, test, _config(num_devices))
        assert_traces_identical(trace, repeat, context=f"M={num_devices}")
        samples = trace.total_samples_consumed
        rows[f"M={num_devices}"] = {
            "samples": samples,
            "samples_per_sec": samples / elapsed,
            "events_per_sample": events / samples,
        }

    header = (f"{'config':>10s} {'samples':>8s} {'sps':>10s} "
              f"{'ev/smp':>8s}")
    lines = [header]
    for name, row in rows.items():
        lines.append(
            f"{name:>10s} {row['samples']:8d} "
            f"{row['samples_per_sec']:10.0f} "
            f"{row['events_per_sample']:8.3f}"
        )
    publish_table("sim_throughput", "\n".join(lines), rows)


def test_protocol_throughput_fused_b1():
    """The b = 1 protocol-bound row: fused rounds vs event-driven.

    Gates on bit-identical traces across the two transports; timing is
    published, not asserted.
    """
    _, samples_per_device = _scale()
    num_devices = 100
    parts, test = _data(num_devices, min(40, samples_per_device))

    direct_trace, direct_events, direct_time = _run(
        parts, test, _config(num_devices, batch_size=1, delay_multiples=0.0,
                             transport="direct"))
    simulated_trace, simulated_events, simulated_time = _run(
        parts, test, _config(num_devices, batch_size=1, delay_multiples=0.0,
                             transport="simulated"))
    # The hard gate: the fused synchronous round and the event-driven
    # round trip are the same protocol, bit for bit.
    assert_traces_identical(direct_trace, simulated_trace,
                            context=f"M={num_devices} b=1 fused")
    samples = direct_trace.total_samples_consumed
    assert direct_events < simulated_events

    rows = {
        "M=100 b=1 fused": {
            "samples": samples,
            "samples_per_sec_direct": samples / direct_time,
            "samples_per_sec_simulated": samples / simulated_time,
            "speedup": simulated_time / direct_time,
            "events_per_sample_direct": direct_events / samples,
            "events_per_sample_simulated": simulated_events / samples,
        }
    }
    header = (f"{'config':>16s} {'samples':>8s} {'direct sps':>11s} "
              f"{'simulated sps':>14s} {'speedup':>8s} {'ev/smp dir':>11s} "
              f"{'ev/smp sim':>11s}")
    row = rows["M=100 b=1 fused"]
    lines = [
        header,
        f"{'M=100 b=1 fused':>16s} {row['samples']:8d} "
        f"{row['samples_per_sec_direct']:11.0f} "
        f"{row['samples_per_sec_simulated']:14.0f} "
        f"{row['speedup']:7.2f}x "
        f"{row['events_per_sample_direct']:11.3f} "
        f"{row['events_per_sample_simulated']:11.3f}",
    ]
    publish_table("protocol_throughput", "\n".join(lines), rows)
