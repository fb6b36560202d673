"""ShardRouter: the one routing function, splitting, and merge discipline."""

import os
import subprocess
import sys

import pytest

from repro.core.sharding import stable_device_hash
from repro.shard import ShardRouter, ShardRoutingError

from tests.shard.conftest import owned_devices

#: Ids a hostile or merely unusual client may present: negative, at and
#: beyond the 32-bit hash width, beyond 64 bits.
EXTREME_IDS = (-1, -2, -(2**31), -(2**63), 2**32 - 1, 2**32, 2**32 + 1,
               2**63, 2**64 + 7, 10**30)


class TestRegistryPolicies:
    """Formerly one case per registered policy; routing is now a single
    function, so each case pins a property of that function."""

    def test_builtins_registered(self):
        # Every id lands in [0, n), and no shard is unreachable.
        for n in (1, 2, 3, 5, 8):
            router = ShardRouter(n)
            shards = [router.shard_of(d) for d in range(4096)]
            assert all(0 <= shard < n for shard in shards)
            assert set(shards) == set(range(n))

    def test_stable_hash_matches_core_hash(self):
        for n in (1, 2, 5, 4096):
            router = ShardRouter(n)
            for device_id in (*range(50), *EXTREME_IDS):
                assert router.shard_of(device_id) == stable_device_hash(device_id) % n

    def test_modulo_policy(self):
        # Pinned tables (recorded at the parent commit): a changed
        # routing would look for a device on a shard other than the one
        # whose state dir enrolled it.
        assert [ShardRouter(3).shard_of(d) for d in range(8)] == [0, 1, 1, 2, 2, 2, 0, 0]
        assert [ShardRouter(5).shard_of(d) for d in range(8)] == [0, 1, 1, 2, 2, 2, 3, 3]

    def test_callable_policy(self):
        # Stable across processes: a worker launched with another hash
        # salt computes the table the front end computes.
        ids = list(range(64)) + list(EXTREME_IDS)
        program = (
            "from repro.shard import ShardRouter; r = ShardRouter(7); "
            f"print([r.shard_of(d) for d in {ids!r}])"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        child = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        router = ShardRouter(7)
        assert child.stdout.strip() == str([router.shard_of(d) for d in ids])

    def test_unknown_policy_raises(self):
        # The shard count is the router's only parameter.
        with pytest.raises(TypeError):
            ShardRouter(2, policy="modulo")
        with pytest.raises(TypeError):
            ShardRouter(2, "stable_hash")


class TestShardOf:
    def test_stable_across_instances(self):
        a, b = ShardRouter(8), ShardRouter(8)
        assert all(a.shard_of(d) == b.shard_of(d) for d in range(100))

    def test_all_shards_reachable(self):
        router = ShardRouter(4)
        assert {router.shard_of(d) for d in range(64)} == {0, 1, 2, 3}

    def test_single_shard(self):
        router = ShardRouter(1)
        assert all(router.shard_of(d) == 0 for d in range(10))

    def test_bad_num_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_out_of_range_policy_caught(self):
        # Nothing a client presents can route outside [0, n): negative
        # ids and ids wider than the 32-bit hash included.
        for n in (1, 2, 3, 7, 4096):
            router = ShardRouter(n)
            for device_id in EXTREME_IDS:
                assert 0 <= router.shard_of(device_id) < n


class TestSplitMerge:
    def test_split_preserves_order_and_indices(self):
        router = ShardRouter(2)
        a, b = owned_devices(router, 0), owned_devices(router, 1)
        items = [{"device_id": d} for d in (a[0], b[0], a[1], b[1], a[2])]
        groups = router.split(items)
        assert groups[0] == [(0, items[0]), (2, items[2]), (4, items[4])]
        assert groups[1] == [(1, items[1]), (3, items[3])]

    def test_split_custom_key(self):
        router = ShardRouter(2)
        keys = [owned_devices(router, 0)[0], owned_devices(router, 1)[0]]
        groups = router.split(keys, device_id_of=lambda x: x)
        assert groups == {0: [(0, keys[0])], 1: [(1, keys[1])]}

    def test_merge_restores_original_order(self):
        router = ShardRouter(2)
        a, b = owned_devices(router, 0), owned_devices(router, 1)
        order = (a[0], b[0], b[1], a[1])
        items = [{"device_id": d} for d in order]
        groups = router.split(items)
        assert set(groups) == {0, 1}
        answers = {
            shard: [f"ack-{item['device_id']}" for _, item in entries]
            for shard, entries in groups.items()
        }
        merged = ShardRouter.merge(groups, answers, len(items))
        assert merged == [f"ack-{d}" for d in order]

    def test_merge_length_mismatch_raises(self):
        router = ShardRouter(2)
        groups = router.split([{"device_id": d} for d in owned_devices(router, 0)[:2]])
        with pytest.raises(ShardRoutingError, match="answered"):
            ShardRouter.merge(groups, {0: ["only-one"]}, 2)
