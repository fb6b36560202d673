"""Shared builders for the durable-serving (``repro.persist``) tests.

A tiny fixed task (d=4, C=3) keeps every snapshot/restore/fault test
fast; traffic is generated from seeded NumPy RNGs so each test is fully
deterministic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.core.protocol import CheckinMessage
from repro.core.server_core import ServerCore
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.persist import snapshot_core

DIM = 4
CLASSES = 3


def make_model() -> MulticlassLogisticRegression:
    return MulticlassLogisticRegression(num_features=DIM, num_classes=CLASSES)


def make_core(max_iterations: int = 10_000, optimizer=None, **kwargs) -> ServerCore:
    """A core built exactly the way the CLI builds one (paper SGD)."""
    model = make_model()
    if optimizer is None:
        optimizer = paper_sgd(
            model.init_parameters(),
            learning_rate_constant=0.5,
            projection_radius=10.0,
        )
    config = kwargs.pop("config", None) or ServerConfig(max_iterations=max_iterations)
    return ServerCore(model, optimizer, config=config, **kwargs)


def make_message(
    core,
    device_id: int,
    token: str,
    rng: np.random.Generator,
    seq: int = -1,
) -> CheckinMessage:
    """One plausible sanitized check-in against ``core``'s model."""
    model = core.model
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=rng.normal(size=model.num_parameters),
        num_samples=int(rng.integers(1, 6)),
        noisy_error_count=int(rng.integers(0, 4)),
        noisy_label_counts=rng.integers(0, 5, size=model.num_classes),
        checkout_iteration=core.iteration,
        checkin_seq=seq,
    )


def core_states_equal(a: ServerCore, b: ServerCore) -> bool:
    """True when two cores are observably identical (parameters bit-exact).

    Compares everything a snapshot captures plus the recomputed stopping
    decision.
    """
    return describe_mismatch(a, b) is None


def describe_mismatch(a: ServerCore, b: ServerCore) -> Optional[str]:
    """Name the first differing state slice (test failure diagnostics)."""
    if a.parameters.tobytes() != b.parameters.tobytes():
        delta = float(np.max(np.abs(a.parameters - b.parameters)))
        return f"parameters differ (max abs delta {delta})"
    for name, view in (
        ("iteration", lambda c: c.iteration),
        ("counters", lambda c: c.counters_state()),
        ("registry", lambda c: c.registry.state_dict()),
        ("monitor", lambda c: c.monitor.state_dict()),
        ("optimizer", lambda c: snapshot_core(c)["optimizer"]),
        ("stop decision", lambda c: c.stopping_decision()),
    ):
        if view(a) != view(b):
            return f"{name} differs: {view(a)!r} != {view(b)!r}"
    return None


@pytest.fixture
def traffic_rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
