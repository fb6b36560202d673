"""Recorded-trace regression suite: the bit-identical protocol contract.

Golden fingerprints in ``tests/data/golden_traces.json`` were recorded
from the event-driven scheduler that the retired
``arrival_mode="per_sample"`` oracle had certified, across the full
figure-level configuration matrix (Figs. 3-9 knobs: delays, privacy,
holdouts, outages, churn, adaptive batching, buffer pressure, stopping
rules).  Every configuration must keep producing those exact traces —
through the :class:`~repro.network.transport.SimulatedTransport` path
always, and through the fused ``transport="direct"`` path (no link,
``ServerCore.serve_round``) wherever it is eligible (zero delay, no
outage).  This is the contract that lets the
run store serve results recorded before the transport redesign.

Regenerate after an *intentional* trace change (or on a platform with a
different BLAS) with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/simulation/test_trace_regression.py
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.data import iid_partition
from repro.evaluation import assert_traces_identical
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

from tests.simulation import _golden as golden_mod

CONFIG_CASES = golden_mod.make_config_cases()
REGENERATE = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


@pytest.fixture(scope="module")
def data():
    return golden_mod.make_data()


@pytest.fixture(scope="module")
def golden():
    if REGENERATE:
        return {}
    return golden_mod.load_golden()


def _check(name, fingerprint, golden):
    if REGENERATE:
        stored = golden_mod.load_golden()
        stored[name] = fingerprint
        golden_mod.save_golden(stored)
        return
    assert name in golden, (
        f"no golden trace recorded for {name!r}; run with REPRO_REGEN_GOLDEN=1"
    )
    # Tiered: exact (bit-for-bit) first, then the REPRO_GOLDEN_ATOL
    # fallback for foreign-BLAS hardware — see _golden.compare_fingerprint.
    problems = golden_mod.compare_fingerprint(name, fingerprint, golden[name])
    assert not problems, "\n".join(problems)


def _zero_delay(overrides) -> bool:
    config = SimulationConfig(num_devices=golden_mod.NUM_DEVICES, **overrides)
    return config.direct_transport_eligible


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_simulated_transport_matches_golden(data, golden, name):
    """The event-driven path reproduces the recorded traces bit for bit."""
    overrides = CONFIG_CASES[name]
    trace, _ = golden_mod.run_case(data, overrides, transport="simulated")
    _check(name, golden_mod.trace_fingerprint(trace), golden)


@pytest.mark.parametrize(
    "name", sorted(n for n, o in CONFIG_CASES.items() if _zero_delay(o))
)
def test_direct_transport_matches_golden(data, golden, name):
    """Fused synchronous rounds are bit-identical to the recorded traces —
    and fire strictly fewer heap events than the event-driven path."""
    overrides = CONFIG_CASES[name]
    direct_trace, direct_events = golden_mod.run_case(
        data, overrides, transport="direct"
    )
    _check(name, golden_mod.trace_fingerprint(direct_trace), golden)
    simulated_trace, simulated_events = golden_mod.run_case(
        data, overrides, transport="simulated"
    )
    assert_traces_identical(direct_trace, simulated_trace, context=name)
    # The whole point of the fused path: no per-message heap events.
    assert direct_events < simulated_events


def test_auto_transport_selects_direct_when_eligible(data):
    train, test = data
    parts = iid_partition(train, 10, np.random.default_rng(0))
    zero = CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test,
        SimulationConfig(num_devices=10), seed=0,
    )
    assert zero.config.resolved_transport() == "direct"
    delayed = CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test,
        SimulationConfig(num_devices=10, link_delays=LinkDelays.uniform(0.5)),
        seed=0,
    )
    assert delayed.config.resolved_transport() == "simulated"


def test_single_device(data, golden):
    train, test = data
    config = SimulationConfig(num_devices=1, num_snapshots=8, batch_size=5,
                              link_delays=LinkDelays.uniform(0.2))
    parts = iid_partition(train, 1, np.random.default_rng(0))
    trace = CrowdSimulator(
        MulticlassLogisticRegression(50, 10), parts, test, config,
        seed=golden_mod.SEED,
    ).run()
    _check("single_device", golden_mod.trace_fingerprint(trace), golden)


def test_empty_device_dataset(data, golden):
    """A device with no local data stays silent (both transports)."""
    train, test = data
    parts = iid_partition(train, 2, np.random.default_rng(0))
    empty = dataclasses.replace(
        parts[0],
        features=parts[0].features[:0],
        labels=parts[0].labels[:0],
    )
    traces = []
    for transport in ("direct", "simulated"):
        config = SimulationConfig(num_devices=3, batch_size=2, num_snapshots=4,
                                  transport=transport)
        simulator = CrowdSimulator(
            MulticlassLogisticRegression(50, 10),
            [parts[0], empty, parts[1]], test, config, seed=3,
        )
        traces.append(simulator.run())
    assert_traces_identical(traces[0], traces[1], context="empty_device")
    _check("empty_device", golden_mod.trace_fingerprint(traces[0]), golden)


def test_seed_sensitivity_preserved(data):
    """Different seeds still give different runs."""
    train, test = data
    config = SimulationConfig(num_devices=10, batch_size=5, num_snapshots=8,
                              link_delays=LinkDelays.uniform(0.5))
    parts = iid_partition(train, 10, np.random.default_rng(0))
    traces = [
        CrowdSimulator(MulticlassLogisticRegression(50, 10), parts, test,
                       config, seed=seed).run()
        for seed in (0, 1)
    ]
    assert not np.array_equal(traces[0].final_parameters,
                              traces[1].final_parameters)
