"""Shared builders for the sharded-serving tests.

Two tiers are built here:

* an **in-process** tier — real :class:`CrowdService` workers on
  loopback threads behind a :class:`ShardFrontEnd` with
  :class:`StaticEndpoints` — fast enough for routing/merge/epoch tests;
* a **subprocess** tier — real ``repro-serve`` workers under a
  :class:`ShardSupervisor` — for failover and campaign tests, where the
  deaths must be real process deaths.

The task is the persist suite's tiny fixed one (d=4, C=3, paper SGD at
lr-constant 0.5, radius 10), so per-shard reference cores built with
``tests.persist.conftest.make_core`` are bit-comparable with worker
state.
"""

from __future__ import annotations

import os

import pytest

from repro.core.auth import DeviceRegistry
from repro.serve.client import ServiceClient
from repro.serve.service import CrowdService
from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor, ShardWorker, StaticEndpoints

from tests.persist.conftest import DIM, CLASSES, make_core, make_message  # noqa: F401
from tests.persist.conftest import traffic_rng  # noqa: F401

SERVER_KEY = "shard-test-key"


def serve_env() -> dict:
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src",
    )
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def worker_base_args(shard_index: int, shard_count: int,
                     extra=()) -> list:
    """``repro-serve`` worker-mode args for the tiny fixed task."""
    return [
        "--num-features", str(DIM),
        "--num-classes", str(CLASSES),
        "--learning-rate-constant", "0.5",
        "--projection-radius", "10.0",
        "--server-key", SERVER_KEY,
        "--checkpoint-every", "1",
        "--shard-index", str(shard_index),
        "--shard-count", str(shard_count),
        *extra,
    ]


def make_workers(state_dir, num_shards: int, extra=()) -> list:
    return [
        ShardWorker(
            shard,
            os.path.join(str(state_dir), f"shard-{shard}"),
            worker_base_args(shard, num_shards, extra=extra),
            env=serve_env(),
        )
        for shard in range(num_shards)
    ]


def owned_devices(router: ShardRouter, shard: int, universe=range(32)) -> list:
    """Device ids from ``universe`` the router assigns to ``shard``."""
    return [d for d in universe if router.shard_of(d) == shard]


def make_client(url: str, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 15.0)
    kwargs.setdefault("retries", 8)
    kwargs.setdefault("backoff", 0.02)
    kwargs.setdefault("backoff_max", 0.2)
    return ServiceClient(url, **kwargs)


class InProcessTier:
    """N CrowdService workers + front end, all on loopback threads."""

    def __init__(self, num_shards: int = 2, epochs=None, **frontend_kwargs):
        self.router = ShardRouter(num_shards)
        self.cores = [make_core(registry=DeviceRegistry(server_key=SERVER_KEY))
                      for _ in range(num_shards)]
        self.epochs = list(epochs) if epochs is not None else [0] * num_shards
        self.services = [
            CrowdService(core, port=0, shard_epoch=epoch).start()
            for core, epoch in zip(self.cores, self.epochs)
        ]
        self.endpoints = StaticEndpoints({
            shard: (service.url, epoch)
            for shard, (service, epoch)
            in enumerate(zip(self.services, self.epochs))
        })
        self.frontend = ShardFrontEnd(
            self.router, self.endpoints, **frontend_kwargs
        ).start()

    def close(self):
        self.frontend.stop()
        for service in self.services:
            service.stop()


@pytest.fixture
def tier():
    built = InProcessTier(num_shards=2)
    yield built
    built.close()


def start_supervised_tier(state_dir, num_shards: int, extra=(), **kwargs):
    workers = make_workers(state_dir, num_shards, extra=extra)
    kwargs.setdefault("health_interval", 0.15)
    kwargs.setdefault("heartbeat_timeout", 1.0)
    supervisor = ShardSupervisor(workers, **kwargs)
    supervisor.start()
    return supervisor
