"""Durable round: SIGKILL the server mid-run, resume, lose nothing.

The durability headline in one script: a full Crowd-ML training run over
live HTTP whose server is **killed with SIGKILL** (no handlers, no
flush) partway through, restarted from its ``--state-dir``, and killed
*again* — and whose final parameters and error curve are still
**bit-identical** to an uninterrupted in-process run.

Why this works (see README "Durability & fault tolerance"):

* ``repro-serve --state-dir D --checkpoint-every 1`` appends each
  accepted check-in request to a checksummed log and ``fsync``s it
  *before* the ack leaves the server (a few KB per ack, whatever the
  crowd size), so a crash can only lose updates the client never saw
  acknowledged; a restart recovers the newest snapshot and replays the
  log records after it;
* the retrying client (``http_retries``) re-submits those — stamped with
  per-device ``checkin_seq`` numbers, so a re-submission the server
  *did* already apply is answered from its dedupe ledger instead of
  applied twice.  Lost ack or lost request, the update lands exactly
  once.

Acts:

1. Reference run: ``CrowdSimulator`` with fused in-process rounds
   (``transport="direct"``).
2. The same spec against a real ``repro-serve`` subprocess with a state
   dir, while a watchdog thread SIGKILLs and restarts it twice mid-run.
3. Verdict: final parameters and the whole error curve must match act 1
   float for float, with zero server-side internal errors.

Usage::

    PYTHONPATH=src python examples/durable_round.py
"""

from __future__ import annotations

import os
import socket
import sys
import tempfile
import threading
import time

import numpy as np

from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.persist import ServeProcess
from repro.serve import ServiceClient
from repro.simulation import CrowdSimulator, SimulationConfig

NUM_DEVICES = 4
BATCH_SIZE = 5
NUM_FEATURES = 50
NUM_CLASSES = 10
LEARNING_RATE_CONSTANT = 1.0
PROJECTION_RADIUS = 100.0
NUM_TRAIN, NUM_TEST = 1200, 120
SEED = 7


def free_port() -> int:
    """A currently free TCP port the server can bind (and re-bind)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def simulator(config: SimulationConfig, parts, test) -> CrowdSimulator:
    return CrowdSimulator(
        MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES),
        parts, test, config, seed=SEED,
    )


def watchdog(server: ServeProcess, url: str, kill_at: list, done: threading.Event):
    """SIGKILL + restart the server as training crosses each threshold."""
    poll = ServiceClient(url, timeout=5)
    for threshold in kill_at:
        while not done.is_set():
            try:
                if poll.status().iteration >= threshold:
                    break
            except Exception:  # noqa: BLE001 - server may be mid-restart
                time.sleep(0.01)
        if done.is_set():
            return
        server.sigkill()
        server.start()
        print(f"   !! SIGKILLed at >= iteration {threshold}, resumed "
              f"(kill #{server.kills})", flush=True)
        # The restarted server says what it recovered from: the newest
        # snapshot plus the log records appended since.
        for _ in range(3):
            line = server.process.stdout.readline()
            if line.startswith("resumed iteration"):
                print(f"      server: {line.strip()}", flush=True)
                break


def main() -> int:
    train, test = make_mnist_like(num_train=NUM_TRAIN, num_test=NUM_TEST, seed=0)
    parts = iid_partition(train, NUM_DEVICES, np.random.default_rng(0))
    max_iterations = sum(len(p) for p in parts) + 1
    base = dict(num_devices=NUM_DEVICES, batch_size=BATCH_SIZE, num_snapshots=8)

    print(f"-- act 1: uninterrupted in-process reference, M={NUM_DEVICES}, "
          f"b={BATCH_SIZE}")
    direct = simulator(
        SimulationConfig(transport="direct", **base), parts, test
    ).run()
    print(f"   final error {direct.curve.final_error:.3f}, "
          f"{direct.server_iterations} updates")

    print("-- act 2: the same run against a repro-serve that gets SIGKILLed")
    port = free_port()
    state_dir = tempfile.mkdtemp(prefix="crowdml-state-")
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = ServeProcess([
        "--port", str(port),
        "--num-features", str(NUM_FEATURES),
        "--num-classes", str(NUM_CLASSES),
        "--learning-rate-constant", str(LEARNING_RATE_CONSTANT),
        "--projection-radius", str(PROJECTION_RADIUS),
        "--max-iterations", str(max_iterations),
        "--state-dir", state_dir,
        "--checkpoint-every", "1",
        "--metrics",
    ], env=env)
    url = server.start()
    print(f"   serving on {url}, state dir {state_dir}")

    done = threading.Event()
    # Thresholds are in server *updates* (one per device batch), not
    # samples: the run applies NUM_TRAIN / BATCH_SIZE updates total.
    total_updates = NUM_TRAIN // BATCH_SIZE
    kill_at = [total_updates // 3, (2 * total_updates) // 3]
    killer = threading.Thread(
        target=watchdog, args=(server, url, kill_at, done), daemon=True
    )
    killer.start()
    try:
        durable = simulator(
            SimulationConfig(transport="http", server_url=url,
                             http_retries=10, **base),
            parts, test,
        ).run()
    finally:
        done.set()
        killer.join(timeout=30)
    observer = ServiceClient(url, timeout=10, retries=3)
    status = observer.status()
    counters = {
        entry["name"]: entry["value"]
        for entry in observer.metrics_snapshot()["counters"]
    }
    exit_code = server.terminate()
    print(f"   final error {durable.curve.final_error:.3f}, "
          f"{durable.server_iterations} updates, "
          f"{server.kills} SIGKILLs survived")
    print(f"   duplicates suppressed by the server's dedupe ledger: "
          f"{status.duplicates_suppressed}")
    commits = counters.get("checkpoint_log_commits_total", 0)
    if commits:
        # O(request), not O(registered devices): a regression to
        # snapshot-per-ack shows here as hundreds of KB.
        print(f"   durability cost since the last restart: {commits:.0f} log "
              f"commits, "
              f"{counters['checkpoint_log_bytes_total'] / commits:.0f} bytes "
              f"per ack")
    print(f"   graceful shutdown exit code: {exit_code}")

    print("-- act 3: verdict")
    ok = True
    if server.kills < len(kill_at):
        print(f"   !! watchdog only killed {server.kills}/{len(kill_at)} times "
              f"(run too fast?); weaker evidence but parity still checked")
    if not np.array_equal(direct.final_parameters, durable.final_parameters):
        print("   !! final parameters diverged from the reference run")
        ok = False
    if not (np.array_equal(direct.curve.iterations, durable.curve.iterations)
            and np.array_equal(direct.curve.errors, durable.curve.errors)):
        print("   !! error curves diverged from the reference run")
        ok = False
    if exit_code != 0:
        print(f"   !! server shutdown was dirty (exit {exit_code})")
        ok = False
    if not ok:
        return 1
    print("ok: kill-resume run is bit-identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
