"""Ablation A9 — label-skewed (non-i.i.d.) device data.

The paper's trials assign samples to devices uniformly at random; real
crowds are skewed (each phone sees its owner's habits).  Crowd-ML pools
gradients at the server, so — unlike the decentralized approach, whose
per-device models can only learn the classes they see — global accuracy
should degrade only mildly as per-device label diversity collapses.
"""

import numpy as np
import pytest

from benchmarks._harness import publish_table, run_once
from repro.baselines import DecentralizedTrainer
from repro.data import (
    dirichlet_partition,
    iid_partition,
    make_mnist_like,
    shard_partition,
)
from repro.models import MulticlassLogisticRegression
from repro.optim import InverseSqrtRate
from repro.simulation import SimulationConfig, run_crowd_trials

DEVICES = 100


def model_factory():
    return MulticlassLogisticRegression(50, 10, l2_regularization=1e-4)


def run_ablation():
    train, test = make_mnist_like(num_train=6000, num_test=1200)
    partitions = {
        "iid": iid_partition,
        "dirichlet a=0.5": lambda ds, m, rng: dirichlet_partition(ds, m, rng, 0.5),
        "dirichlet a=0.1": lambda ds, m, rng: dirichlet_partition(ds, m, rng, 0.1),
        "shards x2": lambda ds, m, rng: shard_partition(ds, m, rng, 2),
    }
    rows = []
    for name, partition in partitions.items():
        config = SimulationConfig(
            num_devices=DEVICES, learning_rate_constant=30.0,
            num_passes=3,
        )
        crowd = run_crowd_trials(
            model_factory, train, test, config, num_trials=1, partition=partition,
        ).tail_error()
        parts = partition(train, DEVICES, np.random.default_rng(0))
        local = DecentralizedTrainer(
            model_factory(), InverseSqrtRate(30.0), evaluation_devices=8
        ).fit(parts, test, np.random.default_rng(1), num_passes=3).curve.final_error
        rows.append((name, crowd, local))
    return rows


def test_noniid_robustness(benchmark):
    rows = run_once(benchmark, run_ablation)
    lines = [f"{'partition':<18} {'crowd':>8} {'decentral':>10}"]
    for name, crowd, local in rows:
        lines.append(f"{name:<18} {crowd:>8.3f} {local:>10.3f}")
    publish_table("ablation_noniid", "\n".join(lines),
                  {name: {"crowd": crowd, "decentralized": local}
                   for name, crowd, local in rows})

    by_name = {r[0]: r for r in rows}
    iid_crowd = by_name["iid"][1]

    # Crowd-ML degrades only mildly under heavy skew (pooled gradients).
    for name, crowd, local in rows:
        assert crowd < iid_crowd + 0.15, name

    # The decentralized approach collapses under skew: devices trained on
    # ~2 classes cannot classify 10.  Crowd-ML dominates it everywhere,
    # and the gap widens as skew grows.
    for name, crowd, local in rows:
        assert crowd < local, name
    iid_gap = by_name["iid"][2] - by_name["iid"][1]
    shard_gap = by_name["shards x2"][2] - by_name["shards x2"][1]
    assert shard_gap > iid_gap
