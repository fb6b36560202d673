"""Epoch fencing on the SnapshotStore: the zombie-write firewall."""

import json
import os

import pytest

from repro.persist import Checkpointer, FencedWriteError, SnapshotStore, snapshot_core
from repro.persist.checkpoint import KIND_CHECKINS, read_segment
from repro.serve.cli import build_parser, build_service
from repro.utils.exceptions import ReproError

from tests.shard.conftest import make_core


def snapshot(iteration: int = 0) -> dict:
    snap = snapshot_core(make_core())
    snap["optimizer"]["iteration"] = iteration
    return snap


class TestFenceFile:
    def test_unfenced_dir_reads_minus_one(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).fence_epoch() == -1

    def test_advance_is_monotonic(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert [store.advance_fence() for _ in range(3)] == [0, 1, 2]
        assert store.fence_epoch() == 2

    def test_garbled_fence_reads_minus_one(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        (tmp_path / "epoch.json").write_text("{not json")
        assert store.fence_epoch() == -1
        (tmp_path / "epoch.json").write_text('{"epoch": "nope"}')
        assert store.fence_epoch() == -1

    def test_bad_epoch_argument(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(str(tmp_path), epoch=-2)


class TestFencedWrites:
    def test_fenced_store_stamps_payload_epoch(self, tmp_path):
        store = SnapshotStore(str(tmp_path), epoch=3)
        path = store.write(snapshot())
        payload = json.loads(open(path).read())
        assert payload["epoch"] == 3
        # The stamp lives outside the checksummed body: the snapshot
        # itself stays bit-comparable across incarnations.
        assert "epoch" not in payload["snapshot"]

    def test_unfenced_store_omits_epoch(self, tmp_path):
        path = SnapshotStore(str(tmp_path)).write(snapshot())
        assert "epoch" not in json.loads(open(path).read())

    def test_write_at_current_epoch_allowed(self, tmp_path):
        fence = SnapshotStore(str(tmp_path)).advance_fence()
        store = SnapshotStore(str(tmp_path), epoch=fence)
        store.write(snapshot())  # does not raise

    def test_write_refused_once_fence_passes(self, tmp_path):
        setup = SnapshotStore(str(tmp_path))
        epoch = setup.advance_fence()
        zombie = SnapshotStore(str(tmp_path), epoch=epoch)
        zombie.write(snapshot(1))
        setup.advance_fence()  # the supervisor fences the takeover
        with pytest.raises(FencedWriteError, match="fenced at epoch"):
            zombie.write(snapshot(2))
        # The refused write left nothing behind.
        newest, _ = zombie.load_latest()
        assert newest["optimizer"]["iteration"] == 1

    def test_append_refused_once_fence_passes_leaves_no_bytes(self, tmp_path):
        setup = SnapshotStore(str(tmp_path))
        zombie = SnapshotStore(str(tmp_path), epoch=setup.advance_fence())
        core = make_core()
        # The startup snapshot every worker primes its dir with; commits
        # append to the log from here on.
        checkpointer = Checkpointer(zombie)
        checkpointer.checkpoint(core)
        size = zombie.append(KIND_CHECKINS, 0, core, b"accepted request")
        (segment,) = zombie.segment_paths()
        assert os.path.getsize(segment) == size
        assert read_segment(segment)[0].epoch == zombie.epoch
        setup.advance_fence()  # the supervisor fences the takeover
        with pytest.raises(FencedWriteError, match="fenced at epoch"):
            zombie.append(KIND_CHECKINS, 0, core, b"accepted request")
        # The refused append left nothing behind, and opened no segment.
        assert os.path.getsize(segment) == size
        assert zombie.segment_paths() == [segment]
        # The same refusal through the checkpointer: the commit raises
        # (the service answers 500 — no ack) on every later attempt too
        # (the first as a refused append, the next as the refused
        # snapshot a failed commit owes).
        for _ in range(2):
            with pytest.raises(FencedWriteError):
                checkpointer.commit(core, b"accepted request", 0, join=True)
        assert os.path.getsize(segment) == size
        assert len(zombie.snapshot_paths()) == 1  # the pre-fence one only

    def test_unfenced_writer_ignores_fence(self, tmp_path):
        # epoch=None is the single-process mode; a fence file present in
        # the dir (e.g. copied state) must not brick it.
        SnapshotStore(str(tmp_path)).advance_fence()
        SnapshotStore(str(tmp_path)).write(snapshot())

    def test_reads_never_fenced(self, tmp_path):
        store = SnapshotStore(str(tmp_path), epoch=0)
        store.write(snapshot(5))
        SnapshotStore(str(tmp_path)).advance_fence()
        snap, _ = store.load_latest()  # fenced writer may still read
        assert snap["optimizer"]["iteration"] == 5


class TestWorkerStartupFence:
    def args(self, tmp_path, epoch: int):
        return build_parser().parse_args([
            "--num-features", "4", "--num-classes", "3", "--port", "0",
            "--state-dir", str(tmp_path),
            "--shard-index", "0", "--shard-count", "2",
            "--shard-epoch", str(epoch),
        ])

    def test_superseded_incarnation_refuses_to_start(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.advance_fence()
        store.advance_fence()  # fence now 1
        with pytest.raises(ReproError, match="superseded"):
            build_service(self.args(tmp_path, epoch=0))

    def test_current_incarnation_starts(self, tmp_path):
        epoch = SnapshotStore(str(tmp_path)).advance_fence()
        service = build_service(self.args(tmp_path, epoch=epoch))
        try:
            assert service.core is not None
        finally:
            service.stop()

    def test_bad_shard_index_rejected(self, tmp_path):
        args = build_parser().parse_args([
            "--num-features", "4", "--num-classes", "3", "--port", "0",
            "--shard-index", "3", "--shard-count", "2",
        ])
        with pytest.raises(ReproError, match="shard-index"):
            build_service(args)
