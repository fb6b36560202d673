"""Observability overhead: enabled-vs-disabled, identical results.

Two arms, both published to ``benchmarks/results/obs_overhead.json``:

* **simulator** — the ``sim_throughput`` M = 100 operating point run
  with a live :class:`~repro.obs.metrics.MetricsRegistry` vs the
  default null registry.  The run **gates on bit-identical traces**
  (instrumentation must never perturb learning state); the wall-clock
  overhead percentage is recorded, **not** asserted (shared-runner
  jitter must not flake CI — the ≤5 % target is a recorded number the
  artifact history tracks).
* **serve** — a single-client check-in loop against two live
  ``repro-serve`` processes, with and without ``--metrics``, the arms
  interleaved round by round; same recording-only treatment, plus the
  enabled arm's scrape must be non-vacuous.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from benchmarks._harness import publish_table
from benchmarks.test_serve_throughput import (
    BATCH_SIZE as SERVE_BATCH,
    CLASSES,
    DIM,
    spawn_server,
)
from benchmarks.test_sim_throughput import _config, _data
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.evaluation import assert_traces_identical
from repro.models import MulticlassLogisticRegression
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServiceClient
from repro.serve.launch import shut_down
from repro.simulation import CrowdSimulator

REPEATS = 5  # best-of-N wall clock per arm (arms interleaved pairwise)
SIM_DEVICES = 100


def _sim_samples() -> int:
    return 120 if os.environ.get("REPRO_SCALE", "benchmark") == "smoke" else 200


def _serve_rounds() -> int:
    return 40 if os.environ.get("REPRO_SCALE", "benchmark") == "smoke" else 2000


def _run_sim_once(parts, test, metrics):
    simulator = CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test,
        _config(SIM_DEVICES), seed=0, metrics=metrics,
    )
    start = time.perf_counter()
    trace = simulator.run()
    return trace, time.perf_counter() - start


def test_sim_overhead_and_parity():
    parts, test = _data(SIM_DEVICES, _sim_samples())
    registry = MetricsRegistry("overhead-bench")

    # Warm-up run (allocator, numpy caches), then interleave the arms,
    # alternating which goes first in each pair so run-position bias
    # cancels; best-of-N per arm is the overhead estimate.
    _run_sim_once(parts, test, metrics=None)
    disabled_time = enabled_time = None
    for repeat in range(REPEATS):
        order = [None, registry] if repeat % 2 == 0 else [registry, None]
        for metrics in order:
            trace, elapsed = _run_sim_once(parts, test, metrics=metrics)
            if metrics is None:
                disabled_trace = trace
                disabled_time = elapsed if disabled_time is None \
                    else min(disabled_time, elapsed)
            else:
                enabled_trace = trace
                enabled_time = elapsed if enabled_time is None \
                    else min(enabled_time, elapsed)

    # THE GATE: metrics are pure observation — the traces match bit for
    # bit, so golden curves and every downstream artifact are untouched.
    assert_traces_identical(disabled_trace, enabled_trace,
                            context="obs enabled vs disabled")
    np.testing.assert_array_equal(disabled_trace.final_parameters,
                                  enabled_trace.final_parameters)

    # The enabled arm really measured something.
    snapshot = registry.snapshot()
    counters = {c["name"]: c["value"] for c in snapshot["counters"]}
    assert counters["sim_runs_total"] == REPEATS
    assert counters["sim_samples_total"] == \
        REPEATS * enabled_trace.total_samples_consumed
    assert counters["sim_events_total"] > 0

    samples = disabled_trace.total_samples_consumed
    overhead_pct = 100.0 * (enabled_time - disabled_time) / disabled_time
    rows = {
        "simulator_M=100": {
            "samples": samples,
            "samples_per_sec_disabled": round(samples / disabled_time, 1),
            "samples_per_sec_enabled": round(samples / enabled_time, 1),
            "overhead_pct": round(overhead_pct, 2),
            "overhead_target_pct": 5.0,
            "bit_identical": True,
        },
    }
    text = (
        "obs_overhead simulator arm (M=100 operating point; timing "
        "non-gating, parity gated)\n"
        f"  disabled : {samples} samples in {disabled_time:.3f}s = "
        f"{samples / disabled_time:.0f} samples/s\n"
        f"  enabled  : {samples} samples in {enabled_time:.3f}s = "
        f"{samples / enabled_time:.0f} samples/s\n"
        f"  overhead : {overhead_pct:+.2f}% (target <= 5%; bit-identical "
        "traces)"
    )
    _publish_merged(text, rows)


def _drive_serve(urls, num_rounds: int) -> list:
    """Seconds each server spent on ``num_rounds`` identical rounds.

    The arms are interleaved round by round (alternating which goes
    first), so machine drift over the run lands on both alike.
    """
    model = MulticlassLogisticRegression(DIM, CLASSES)
    rng = np.random.default_rng(4242)
    clients = [ServiceClient(url, timeout=10.0) for url in urls]
    tokens = [client.join(0) for client in clients]
    seconds = [0.0] * len(urls)
    for seq in range(num_rounds):
        gradient = rng.normal(size=model.num_parameters)
        label_counts = rng.integers(0, 5, size=CLASSES)
        arms = range(len(urls))
        for arm in arms if seq % 2 == 0 else reversed(arms):
            start = time.perf_counter()
            response = clients[arm].checkout(
                CheckoutRequest(0, tokens[arm], 0.0))
            clients[arm].checkins([CheckinMessage(
                device_id=0, token=tokens[arm], gradient=gradient,
                num_samples=SERVE_BATCH, noisy_error_count=0,
                noisy_label_counts=label_counts,
                checkout_iteration=response.server_iteration,
                checkin_seq=seq,
            )])
            seconds[arm] += time.perf_counter() - start
    return seconds


def test_serve_overhead():
    num_rounds = _serve_rounds()

    with contextlib.ExitStack() as servers:
        urls = []
        for extra in ((), ("--metrics",)):
            process, url = spawn_server(max_iterations=10**7, extra=extra)
            servers.callback(shut_down, process)
            urls.append(url)
        disabled_time, enabled_time = _drive_serve(urls, num_rounds)
        for url in urls:
            status = ServiceClient(url).status()
            assert status.iteration == num_rounds
            assert status.rejected_messages == 0
        scraped = ServiceClient(urls[1]).metrics_snapshot()
        assert scraped["enabled"] is True
        checkins = [
            c["value"] for c in scraped["counters"]
            if c["name"] == "service_requests_total"
            and c["labels"].get("endpoint") == "checkins"
        ]
        assert checkins == [num_rounds]  # non-vacuous scrape

    overhead_pct = 100.0 * (enabled_time - disabled_time) / disabled_time
    rows = {
        "serve_single_client": {
            "rounds": num_rounds,
            "rounds_per_sec_disabled": round(num_rounds / disabled_time, 1),
            "rounds_per_sec_enabled": round(num_rounds / enabled_time, 1),
            "overhead_pct": round(overhead_pct, 2),
            "server_errors": 0,
        },
    }
    text = (
        "obs_overhead serve arm (single client loop, arms interleaved "
        "round by round; timing non-gating)\n"
        f"  disabled : {num_rounds} rounds in {disabled_time:.3f}s = "
        f"{num_rounds / disabled_time:.0f} rounds/s\n"
        f"  enabled  : {num_rounds} rounds in {enabled_time:.3f}s = "
        f"{num_rounds / enabled_time:.0f} rounds/s (--metrics)\n"
        f"  overhead : {overhead_pct:+.2f}%"
    )
    _publish_merged(text, rows)


def _publish_merged(text: str, rows: dict) -> None:
    """Merge arms from both tests into one ``obs_overhead`` artifact.

    The text table keeps one block per arm (keyed by the block's first
    line), so re-running either test replaces its own block instead of
    appending forever.
    """
    import json

    from benchmarks._harness import RESULTS_DIR

    json_path = os.path.join(RESULTS_DIR, "obs_overhead.json")
    txt_path = os.path.join(RESULTS_DIR, "obs_overhead.txt")
    arms: dict = {}
    blocks: dict = {}
    if os.path.exists(json_path):
        with open(json_path) as handle:
            arms = json.load(handle).get("arms", {})
    if os.path.exists(txt_path):
        with open(txt_path) as handle:
            for block in handle.read().strip("\n").split("\n\n"):
                if block:
                    blocks[block.splitlines()[0]] = block
    arms.update(rows)
    blocks[text.splitlines()[0]] = text
    publish_table("obs_overhead", "\n\n".join(blocks.values()), arms)
