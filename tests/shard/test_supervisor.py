"""ShardSupervisor over real worker processes: health, failover, fencing.

These tests spawn actual ``repro-serve`` subprocesses and kill/wedge
them; timings use the conftest's tight health intervals so a failover
completes in a couple of seconds.
"""

import time

import pytest

from repro.persist import SnapshotStore
from repro.serve.client import RemoteServiceError, ServiceClient
from repro.shard import ShardFrontEnd, ShardRouter

from tests.shard.conftest import make_client, start_supervised_tier


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def tier2(tmp_path):
    supervisor = start_supervised_tier(tmp_path, num_shards=2)
    yield supervisor
    supervisor.stop(graceful=False)


class TestStartup:
    def test_every_shard_routed_at_epoch_zero(self, tier2):
        endpoints = tier2.endpoints()
        assert sorted(endpoints) == [0, 1]
        for shard, (url, epoch) in endpoints.items():
            assert epoch == 0
            status = ServiceClient(url, timeout=10.0).status()
            assert status.epoch == 0

    def test_fence_files_match(self, tier2, tmp_path):
        for shard in (0, 1):
            store = SnapshotStore(str(tmp_path / f"shard-{shard}"))
            assert store.fence_epoch() == 0

    def test_graceful_stop_is_clean(self, tmp_path):
        supervisor = start_supervised_tier(tmp_path, num_shards=2)
        codes = supervisor.stop(graceful=True)
        assert codes == {0: 0, 1: 0}


class TestCrashFailover:
    def test_sigkill_respawns_at_next_epoch(self, tier2, tmp_path):
        old_url, old_epoch = tier2.endpoints()[0]
        tier2.workers[0].sigkill()
        assert wait_until(
            lambda: tier2.endpoints().get(0, (None, -1))[1] == old_epoch + 1
        ), f"no failover: {tier2.stats_snapshot()}"
        new_url, new_epoch = tier2.endpoints()[0]
        assert new_epoch == 1
        # The replacement answers, stamped with the new epoch.
        assert make_client(new_url).status().epoch == 1
        stats = tier2.stats_snapshot()
        assert stats["failovers"] == 1
        assert stats["process_exit_failovers"] == 1
        assert SnapshotStore(str(tmp_path / "shard-0")).fence_epoch() == 1

    def test_untouched_shard_unaffected(self, tier2):
        sibling_url, _ = tier2.endpoints()[1]
        tier2.workers[0].sigkill()
        assert wait_until(lambda: 0 in tier2.endpoints()
                          and tier2.endpoints()[0][1] == 1)
        assert tier2.endpoints()[1][0] == sibling_url
        assert tier2.workers[1].spawns == 1


class TestZombieFencing:
    @pytest.fixture
    def zombie_tier(self, tmp_path):
        # kill_zombies=False: the wedged incarnation is left running so
        # refusal — not the kill — is what protects the shard.  Devices
        # 0..3 are pre-registered (a zombie's *join* would also be
        # refused, since registrations checkpoint too — here the
        # check-in path is the one under test).
        supervisor = start_supervised_tier(
            tmp_path, num_shards=2, kill_zombies=False,
            heartbeat_timeout=0.5, extra=("--register", "4"),
        )
        yield supervisor
        supervisor.stop(graceful=False)

    @pytest.fixture
    def zombie_frontend(self, zombie_tier):
        frontend = ShardFrontEnd(ShardRouter(2), zombie_tier).start()
        yield frontend
        frontend.stop()

    def test_wedged_worker_fails_over_to_sibling_and_is_fenced(
        self, zombie_tier, zombie_frontend, tmp_path
    ):
        zombie_url, _ = zombie_tier.endpoints()[0]
        # Warm the front end on both shards, so the failover below has an
        # upstream client to the zombie to forget.
        via_frontend = make_client(zombie_frontend.url)
        assert via_frontend.status().registered_devices == 4
        assert zombie_url in zombie_frontend._clients
        zombie_tier.workers[0].suspend()  # SIGSTOP: alive but silent
        assert wait_until(
            lambda: zombie_tier.endpoints().get(0, (None, -1))[1] == 1,
            timeout=30.0,
        ), f"no heartbeat failover: {zombie_tier.stats_snapshot()}"
        stats = zombie_tier.stats_snapshot()
        assert stats["heartbeat_failovers"] >= 1
        # The zombie still holds its socket, so the shard landed on a
        # sibling slot at a fresh address.
        new_url, _ = zombie_tier.endpoints()[0]
        assert new_url != zombie_url
        assert stats["sibling_failovers"] >= 1
        assert zombie_tier.workers[0].orphans  # disowned, not killed

        # The zombie wakes up... and its late writes are refused: a
        # check-in that must checkpoint write-ahead fails instead of
        # forking the shard's durable state.
        assert zombie_tier.workers[0].wake_orphans() == 1
        zombie = ServiceClient(zombie_url, timeout=10.0)
        assert zombie.status().epoch == 0  # stale stamp, refusable upstream
        from repro.core.auth import DeviceRegistry
        from tests.shard.conftest import SERVER_KEY, make_core, make_message
        import numpy as np

        reference = make_core(registry=DeviceRegistry(server_key=SERVER_KEY))
        token = reference.register_device(0)  # device 0 is shard 0's
        message = make_message(
            reference, 0, token, np.random.default_rng(0), seq=0
        )
        with pytest.raises(RemoteServiceError) as excinfo:
            zombie.checkins([message])
        assert excinfo.value.http_status == 500  # fenced write → internal

        # Meanwhile the current incarnation serves the shard normally.
        replacement = make_client(zombie_tier.endpoints()[0][0])
        assert replacement.status().epoch == 1

        # Traffic resumes through the front end: it holds one upstream
        # client per live shard URL and none for the fenced address.
        assert via_frontend.join(0) == token
        assert via_frontend.status().registered_devices == 4
        live = {url for url, _ in zombie_tier.endpoints().values()}
        assert set(zombie_frontend._clients) == live
        assert zombie_url not in zombie_frontend._clients
