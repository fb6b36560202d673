"""Tier bring-up: bounded launches, concurrent start, all-or-nothing failure.

The children here are stubs, not ``repro-serve``: a directory holding a
minimal ``repro/serve/cli.py`` goes first on the child's ``PYTHONPATH``,
so ``python -m repro.serve.cli`` — the exact command
:func:`repro.serve.launch.launch` runs — executes a script whose start-up
behaviour the test controls (silent, failing, or announcing only once
its siblings are alive).
"""

import os
import time

import pytest

from repro.persist import SnapshotStore
from repro.serve.launch import LaunchError, launch
from repro.shard import ShardSupervisor, ShardWorker, WorkerSpawnError

STUB_CLI = '''
import argparse, os, signal, socket, sys, time

parser = argparse.ArgumentParser()
for flag in ("--mode", "--port", "--state-dir", "--shard-epoch",
             "--shard-index", "--shard-count"):
    parser.add_argument(flag)
args = parser.parse_args()
if args.state_dir:
    with open(os.path.join(args.state_dir, "pids"), "a") as handle:
        handle.write(f"{os.getpid()}\\n")

if args.mode == "silent":
    print("wedged before announcing", file=sys.stderr, flush=True)
    time.sleep(10.0)
    sys.exit(0)
if args.mode == "fail-" + str(args.shard_index):
    sys.exit("stub shard refuses to start")
if args.mode == "rendezvous":
    # Announce only once every sibling process is alive: a supervisor
    # that waits for shard 0 before spawning shard 1 never gets there.
    tier = os.path.dirname(args.state_dir)
    open(os.path.join(tier, "alive-" + args.shard_index), "w").close()
    deadline = time.monotonic() + 5.0
    while len([n for n in os.listdir(tier) if n.startswith("alive-")]) < int(
        args.shard_count
    ):
        if time.monotonic() > deadline:
            sys.exit("siblings never came up")
        time.sleep(0.01)

listener = socket.socket()
listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
listener.bind(("127.0.0.1", int(args.port)))
listener.listen()
print(f"serving on http://127.0.0.1:{listener.getsockname()[1]}", flush=True)
signal.pause()
'''


@pytest.fixture
def stub_env(tmp_path):
    package = tmp_path / "stub" / "repro" / "serve"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    return {**os.environ, "PYTHONPATH": str(tmp_path / "stub")}


def stub_tier(tmp_path, env, num_shards, mode):
    workers = [
        ShardWorker(
            shard,
            str(tmp_path / "state" / f"shard-{shard}"),
            ["--mode", mode, "--shard-index", str(shard),
             "--shard-count", str(num_shards)],
            env=env,
        )
        for shard in range(num_shards)
    ]
    # A stub answers no heartbeat; keep the watcher out of the test.
    return ShardSupervisor(workers, health_interval=60.0)


def spawned_pids(worker):
    with open(os.path.join(worker.shard_dir, "pids")) as handle:
        return [int(line) for line in handle]


def listening_ports():
    ports = set()
    with open("/proc/net/tcp") as handle:
        next(handle)
        for line in handle:
            fields = line.split()
            if fields[3] == "0A":  # TCP_LISTEN
                ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


class TestLaunchTimeout:
    def test_silent_child_is_killed_at_the_timeout(self, stub_env):
        started = time.monotonic()
        with pytest.raises(LaunchError, match="wedged before announcing"):
            launch(["--mode", "silent"], stub_env, timeout=0.5)
        # The child sleeps 10 s; a readline() that ignores the timeout
        # returns only when it exits.
        assert time.monotonic() - started < 5.0


class TestBringUp:
    def test_shards_come_up_concurrently(self, tmp_path, stub_env):
        supervisor = stub_tier(tmp_path, stub_env, 3, "rendezvous")
        try:
            supervisor.start()
            endpoints = supervisor.endpoints()
            assert sorted(endpoints) == [0, 1, 2]
            assert {epoch for _, epoch in endpoints.values()} == {0}
            assert len({url for url, _ in endpoints.values()}) == 3
            assert [worker.spawns for worker in supervisor.workers] == [1, 1, 1]
        finally:
            supervisor.stop(graceful=False)

    def test_one_failed_shard_takes_the_whole_tier_down(self, tmp_path, stub_env):
        supervisor = stub_tier(tmp_path, stub_env, 3, "fail-1")
        with pytest.raises(WorkerSpawnError, match="shard 1 epoch 0"):
            supervisor.start()
        assert supervisor.endpoints() == {}
        siblings = [supervisor.workers[0], supervisor.workers[2]]
        assert all(worker.spawns == 1 for worker in siblings)
        assert not {worker.port for worker in siblings} & listening_ports()
        for worker in supervisor.workers:
            # Fenced once (-1 -> 0): the failed shard's retries reuse
            # the epoch their one fence advance returned.
            assert SnapshotStore(worker.shard_dir).fence_epoch() == 0
            pids = spawned_pids(worker)
            assert len(pids) == (3 if worker.index == 1 else 1)
            assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
