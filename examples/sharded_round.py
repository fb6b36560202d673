"""Sharded round: kill a worker mid-run, fail the shard over, lose nothing.

The sharded-serving headline in one script: an N-worker tier behind one
shard front end, driven by retrying clients while a worker is SIGKILLed
mid-campaign.  The supervisor fences the dead incarnation's epoch,
respawns the shard from its durable state (snapshot + log tail), and
traffic keeps flowing — and at the end, every shard's parameters are **bit-identical**
to an uninterrupted in-process replay of the same messages.

Why this works (see README "Sharded serving"):

* each worker is a full durable server: every accepted check-in is
  logged and synced into its own ``shard-<k>/`` subdirectory before
  its ack;
* the supervisor advances a monotonic fence epoch before each respawn,
  so a zombie incarnation's late writes are refused, never interleaved;
* clients retry through the front end's 503s during the failover window,
  and per-device ``checkin_seq`` dedupe makes replays exactly-once.

Acts:

1. Bring up a 3-worker tier (supervisor + front end, library-driven).
2. Drive seeded traffic through a retrying client; a ``WorkerKiller``
   SIGKILLs a random worker every few batches.
3. Verdict: kills happened, zero front-end internal errors, aggregate
   iteration count exact, and each shard's state dir recovers to
   the same bits as an uninterrupted reference core.

Usage::

    PYTHONPATH=src python examples/sharded_round.py
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

from repro.core.auth import DeviceRegistry
from repro.core.config import ServerConfig
from repro.core.protocol import CheckinMessage
from repro.core.server_core import ServerCore
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.persist import SnapshotStore, WorkerKiller
from repro.serve import ServiceClient
from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor, ShardWorker

NUM_SHARDS = 3
NUM_DEVICES = 6
ROUNDS = 5
NUM_FEATURES = 8
NUM_CLASSES = 3
LEARNING_RATE_CONSTANT = 0.5
PROJECTION_RADIUS = 10.0
SERVER_KEY = "sharded-round-example"
SEED = 20260808


def make_model() -> MulticlassLogisticRegression:
    return MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)


def make_reference_core() -> ServerCore:
    model = make_model()
    return ServerCore(
        model,
        paper_sgd(model.init_parameters(),
                  learning_rate_constant=LEARNING_RATE_CONSTANT,
                  projection_radius=PROJECTION_RADIUS),
        ServerConfig(max_iterations=10**7),
        registry=DeviceRegistry(server_key=SERVER_KEY),
    )


def worker_args() -> list:
    return [
        "--num-features", str(NUM_FEATURES),
        "--num-classes", str(NUM_CLASSES),
        "--learning-rate-constant", str(LEARNING_RATE_CONSTANT),
        "--projection-radius", str(PROJECTION_RADIUS),
        "--server-key", SERVER_KEY,
        "--checkpoint-every", "1",
        "--shard-count", str(NUM_SHARDS),
    ]


def build_message(device_id: int, token: str, seq: int,
                  rng: np.random.Generator) -> CheckinMessage:
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=rng.normal(size=make_model().num_parameters),
        num_samples=int(rng.integers(1, 6)),
        noisy_error_count=int(rng.integers(0, 4)),
        noisy_label_counts=rng.integers(0, 5, size=NUM_CLASSES),
        checkout_iteration=0,
        checkin_seq=seq,
    )


def main() -> int:
    state_dir = tempfile.mkdtemp(prefix="crowdml-shards-")
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    print(f"-- act 1: bring up {NUM_SHARDS} workers behind one front end")
    workers = [
        ShardWorker(
            index=shard,
            shard_dir=os.path.join(state_dir, f"shard-{shard}"),
            base_args=worker_args() + ["--shard-index", str(shard)],
            env=env,
        )
        for shard in range(NUM_SHARDS)
    ]
    supervisor = ShardSupervisor(workers, health_interval=0.15,
                                 heartbeat_timeout=1.0)
    supervisor.start()
    router = ShardRouter(NUM_SHARDS)
    frontend = ShardFrontEnd(router, supervisor).start()
    for shard, (url, epoch) in sorted(supervisor.endpoints().items()):
        print(f"   shard {shard}: {url} epoch={epoch}  "
              f"state {state_dir}/shard-{shard}")
    print(f"   front end: {frontend.url}")

    print("-- act 2: seeded traffic while a WorkerKiller SIGKILLs workers")
    killer = WorkerKiller(supervisor, every=8, seed=3, max_kills=2)
    client = ServiceClient(frontend.url, timeout=15.0, retries=16,
                           backoff=0.02, backoff_max=0.5, retry_rng=SEED)
    reference_registry = make_reference_core()
    sent = []
    exit_codes = {}
    try:
        tokens = {d: client.join(d) for d in range(NUM_DEVICES)}
        for device_id, token in tokens.items():
            assert token == reference_registry.register_device(device_id)

        rng = np.random.default_rng(SEED)
        for round_index in range(ROUNDS):
            for device_id in range(NUM_DEVICES):
                message = build_message(device_id, tokens[device_id],
                                        seq=round_index, rng=rng)
                result = client.checkins([message])
                if result.acks[0] is None:
                    print(f"   !! round {round_index} device {device_id} "
                          f"never acked")
                    return 1
                sent.append((device_id, message))
                shard = killer.after_batch()
                if shard is not None:
                    print(f"   !! SIGKILLed shard {shard}'s worker after "
                          f"batch {killer.batches_seen} "
                          f"(kill #{killer.kills})", flush=True)
        status = client.status()
        internal_errors = frontend.errors_returned.get("internal", 0)
        stats = supervisor.stats_snapshot()
    finally:
        frontend.stop()
        exit_codes = supervisor.stop(graceful=True)

    print(f"   {len(sent)} check-ins acked, {killer.kills} workers killed, "
          f"{stats['failovers']} failovers "
          f"({stats['respawns_in_place']} in place)")
    print(f"   duplicates suppressed across shards: "
          f"{status.duplicates_suppressed}")
    print(f"   graceful shutdown exit codes: {exit_codes}")

    print("-- act 3: verdict (per-shard parity vs uninterrupted replay)")
    references = {}
    for shard in range(NUM_SHARDS):
        core = make_reference_core()
        for device_id in range(NUM_DEVICES):
            if router.shard_of(device_id) == shard:
                core.register_device(device_id)
        references[shard] = core
    for device_id, message in sent:
        references[router.shard_of(device_id)].handle_checkins([message])

    ok = True
    if killer.kills == 0:
        print("   !! the killer never fired (run too fast?); weaker "
              "evidence but parity still checked")
    if internal_errors:
        print(f"   !! front end returned {internal_errors} internal errors")
        ok = False
    if status.iteration != len(sent):
        print(f"   !! aggregate iteration {status.iteration} != "
              f"{len(sent)} acked check-ins (exactly-once violated)")
        ok = False
    if any(code != 0 for code in exit_codes.values()):
        print(f"   !! dirty worker shutdown: {exit_codes}")
        ok = False
    for shard in range(NUM_SHARDS):
        recovered = SnapshotStore(os.path.join(state_dir, f"shard-{shard}")
                                  ).recover(make_model())
        if recovered is None:
            print(f"   !! shard {shard} left no durable state")
            ok = False
            continue
        restored = recovered.core
        reference = references[shard]
        if restored.iteration != reference.iteration or not np.array_equal(
            restored.parameters, reference.parameters
        ):
            print(f"   !! shard {shard} diverged from the reference run")
            ok = False
        else:
            print(f"   shard {shard}: {restored.iteration} updates, "
                  f"parameters bit-identical")
    if not ok:
        return 1
    print("ok: every shard survived the kills bit-identical to the "
          "uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
