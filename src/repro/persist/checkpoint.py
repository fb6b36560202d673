"""Write-ahead durability for one live :class:`ServerCore`: log + snapshots.

State-dir layout (the run store's atomicity discipline, applied to one
live server instead of a content-addressed sweep)::

    <state_dir>/
        state.json                  # {"format": 1} marker
        lock                        # fcntl writer lock (FileLock)
        epoch.json                  # {"epoch": N} incarnation fence (optional)
        snapshots/snapshot-000000000042.json       # full core state, t=42
        log/segment-00000003-000000000042.log      # requests accepted since

**Commit** (:meth:`Checkpointer.commit`, under the service's core lock,
before the ack): one appended, CRC'd record holding the request body the
handler already has — O(request bytes) whatever the crowd size — plus
the three counters replay cannot rebuild (check-outs and batches that
applied nothing are not logged).  :class:`CheckpointPolicy` decides
which commits ``fsync``; at ``every_n_updates=1`` every one, so a crash
or power cut loses only work whose ack the client never saw (it retries;
the sequence-number dedupe makes that exactly-once).

**Compaction** (:meth:`Checkpointer.checkpoint`): a checksummed image of
the whole core, landed atomically (``write_bytes_atomic``: file and
directory ``fsync``ed); it closes the live segment, so the next commit
opens a fresh one.  Runs at startup, at shutdown, every
:data:`COMPACT_LOG_BYTES` of log and after a failed commit.  Segments
go once no retained snapshot can need them.

**Recovery** (:meth:`SnapshotStore.recover`, the one entry): newest
valid snapshot (torn files are skipped), then the segments in order —
records the snapshot already holds skipped, the rest re-applied.  A
segment ends at its first short, bad-magic or bad-CRC record: a torn
tail is an unacked request.

Epoch fencing (sharded tier)
----------------------------

When N workers share one state tree (one ``shard-<k>/`` dir each), a
supervisor that declares a worker dead and spawns a replacement must
also *fence* the old incarnation: a SIGSTOPped or network-partitioned
"zombie" may wake up later and try to checkpoint state the replacement
has already moved past.  The fence is a monotonic integer in
``epoch.json``:

* the supervisor calls :meth:`SnapshotStore.advance_fence` **before**
  spawning each incarnation and hands the returned epoch to the worker;
* a store opened with ``epoch=e`` stamps ``e`` into every snapshot
  payload and, under the same fcntl lock that serializes writers,
  refuses to write once the fence has advanced past ``e``
  (:class:`FencedWriteError`).

Appends and snapshots both check the fence, under the lock, so a fenced
zombie's commit fails the request before any ack (or byte) leaves it —
its client retries against the current incarnation and the dedupe
ledger keeps the replay exactly-once.  The fence-then-read order in the
supervisor (advance the fence, *then* read the state to recover)
linearizes the takeover: any zombie write either lands before the bump
(and is part of the recovered state) or is refused.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from collections import namedtuple
from typing import Any, Dict, List, Optional, Tuple

from repro.store.backend import (
    check_format_marker,
    fsync_directory,
    write_bytes_atomic,
    write_json_atomic,
)
from repro.store.locking import FileLock
from repro.utils.digest import sha256
from repro.utils.exceptions import SnapshotError

# ``repro.persist.snapshot`` (NumPy, the optimizer and model layers) is
# imported by the methods that encode or decode a snapshot: the sharded
# front end only advances fences, and never loads it.

#: On-disk format version of the state dir, recorded in ``state.json``.
STATE_FORMAT = 1

#: Uncompacted log bytes that trigger a snapshot; recovery replays at
#: most this much.  Replay measures ~13 000 single-message d=50, C=10
#: records/s (~70 MiB/s), so a full log replays in ~0.25 s, 4x inside a
#: 1 s restart budget, and one O(M) snapshot is amortized over ~2 900 acks.
COMPACT_LOG_BYTES = 16 * 1024 * 1024

#: Record kind = the route whose accepted request body the payload is.
KIND_CHECKINS, KIND_JOIN = 1, 2

#: Seconds a writer waits for the state-dir lock.  It is held for one
#: snapshot write or prune (milliseconds), so a longer wait means a wedged
#: holder — fail the request well inside the client's 30 s socket timeout.
_LOCK_TIMEOUT = 10.0

_SNAPSHOT_PREFIX = "snapshot-"
_SEGMENT_PREFIX = "segment-"
_FENCE_FILENAME = "epoch.json"
_MAGIC = b"CML1"
#: A record is: magic, CRC-32 of all that follows | payload length, kind,
#: writer epoch (-1 = unfenced), iteration_before, checkouts_served,
#: rejected_messages, duplicates_suppressed | payload.
_PREFIX = struct.Struct("<4sI")
_FIELDS = struct.Struct("<IBqqqqq")
RECORD_HEADER_BYTES = _PREFIX.size + _FIELDS.size

LogRecord = namedtuple(
    "LogRecord", "kind epoch iteration_before checkouts rejected duplicates payload"
)
Recovered = namedtuple("Recovered", "core snapshot_path records_replayed")


def read_segment(path: str) -> List[LogRecord]:
    """One segment's valid prefix: up to its first torn or bad-CRC record."""
    with open(path, "rb") as handle:
        data = handle.read()
    view = memoryview(data)  # CRC each record without copying it
    records, offset = [], 0
    while offset + RECORD_HEADER_BYTES <= len(data):
        magic, crc = _PREFIX.unpack_from(data, offset)
        length, *fields = _FIELDS.unpack_from(data, offset + _PREFIX.size)
        end = offset + RECORD_HEADER_BYTES + length
        torn = magic != _MAGIC or end > len(data)
        if torn or zlib.crc32(view[offset + _PREFIX.size:end]) != crc:
            break
        records.append(LogRecord(*fields, data[end - length:end]))
        offset = end
    return records


def _name_iteration(path: str) -> int:
    """The 12-digit iteration a snapshot's or segment's file name ends in."""
    return int(os.path.splitext(path)[0][-12:])


class FencedWriteError(SnapshotError):
    """A write from a superseded incarnation was refused by the fence."""


class CheckpointPolicy:
    """When a durability point (an ``fsync`` of the log in ``commit``, a
    snapshot in ``after_update``) is due: update-count / wall-clock cadence.

    Parameters
    ----------
    every_n_updates:
        Due once at least this many updates have been applied since the
        last point (``1`` = before every ack; ``None`` disables the
        count trigger).
    every_seconds:
        Due once this much wall-clock time has passed since the last
        point (``None`` disables the time trigger).

    With both ``None`` the policy never fires on its own — only joins
    and forced snapshots (startup, shutdown, compaction) reach the disk.
    """

    def __init__(
        self,
        every_n_updates: Optional[int] = 1,
        every_seconds: Optional[float] = None,
    ):
        if every_n_updates is not None and every_n_updates < 1:
            raise ValueError(
                f"every_n_updates must be >= 1, got {every_n_updates}"
            )
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be > 0, got {every_seconds}")
        self.every_n_updates = every_n_updates
        self.every_seconds = every_seconds

    def due(
        self,
        iteration: int,
        last_iteration: int,
        now: float,
        last_time: float,
    ) -> bool:
        """Is a durability point due at this point?"""
        if iteration == last_iteration:
            # Nothing new to make durable (joins are synced explicitly,
            # not through the policy).
            return False
        if (
            self.every_n_updates is not None
            and iteration - last_iteration >= self.every_n_updates
        ):
            return True
        if self.every_seconds is not None and now - last_time >= self.every_seconds:
            return True
        return False


class SnapshotStore:
    """One state dir: atomic retention-pruned snapshots plus the request log.

    Parameters
    ----------
    state_dir / retain:
        Directory and newest-K retention.
    epoch:
        Incarnation epoch of this writer (``None`` = unfenced, the
        single-process default).  A fenced store stamps its epoch into
        every snapshot and log record and refuses :meth:`write` and
        :meth:`append` once :meth:`advance_fence` has moved ``epoch.json``
        past it — see the module docstring's fencing protocol.
    """

    def __init__(
        self,
        state_dir: str,
        retain: int = 4,
        epoch: Optional[int] = None,
    ):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        if epoch is not None and epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.state_dir = os.path.abspath(state_dir)
        self.retain = int(retain)
        self.epoch = None if epoch is None else int(epoch)
        self.snapshots_dir = os.path.join(self.state_dir, "snapshots")
        self.log_dir = os.path.join(self.state_dir, "log")
        os.makedirs(self.snapshots_dir, exist_ok=True)
        os.makedirs(self.log_dir, exist_ok=True)
        self._segment = None  # the live segment, opened by the first append
        self.log_bytes = 0  # appended by this store since its last snapshot
        self._lock = FileLock(
            os.path.join(self.state_dir, "lock"), timeout=_LOCK_TIMEOUT
        )
        check_format_marker(
            os.path.join(self.state_dir, "state.json"), STATE_FORMAT, SnapshotError
        )

    # -- paths ---------------------------------------------------------- #

    def snapshot_paths(self) -> List[str]:
        """All snapshot files, newest (highest iteration) first."""
        try:
            names = os.listdir(self.snapshots_dir)
        except FileNotFoundError:
            return []
        files = [
            name for name in names
            if name.startswith(_SNAPSHOT_PREFIX) and name.endswith(".json")
        ]
        # The zero-padded iteration makes lexicographic == numeric order.
        return [
            os.path.join(self.snapshots_dir, name)
            for name in sorted(files, reverse=True)
        ]

    def _path_for(self, iteration: int) -> str:
        return os.path.join(
            self.snapshots_dir, f"{_SNAPSHOT_PREFIX}{iteration:012d}.json"
        )

    def segment_paths(self) -> List[str]:
        """All log segments (``segment-<serial>-<iteration>.log``), oldest first."""
        names = [
            name for name in os.listdir(self.log_dir)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(".log")
        ]
        return [os.path.join(self.log_dir, name) for name in sorted(names)]

    # -- incarnation fence ----------------------------------------------- #

    @property
    def _fence_path(self) -> str:
        return os.path.join(self.state_dir, _FENCE_FILENAME)

    def fence_epoch(self) -> int:
        """The current fence (``-1`` when no incarnation was ever fenced).

        A torn/garbled fence file reads as ``-1`` — the file is written
        atomically, so that only happens to a state dir damaged out of
        band, and treating it as unfenced merely disables refusals (the
        safe direction for a single-writer dir).
        """
        try:
            with open(self._fence_path) as handle:
                fence = json.load(handle).get("epoch", -1)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            return -1
        return fence if isinstance(fence, int) else -1

    def advance_fence(self) -> int:
        """Ratchet the fence one epoch forward; returns the new epoch.

        The supervisor calls this **before** spawning an incarnation
        (and before reading the snapshot a failover restores from): the
        bump happens under the same lock that serializes snapshot
        writes, so once it returns, any write from an older epoch is
        refused — a zombie's late checkpoint can never land after the
        takeover read it is missing from.
        """
        with self._lock:
            new_epoch = self.fence_epoch() + 1
            write_json_atomic(self._fence_path, {"epoch": new_epoch})
        return new_epoch

    def _check_fence_locked(self) -> None:
        if self.epoch is None:
            return
        fence = self.fence_epoch()
        if fence > self.epoch:
            raise FencedWriteError(
                f"write from epoch {self.epoch} refused: {self.state_dir} "
                f"is fenced at epoch {fence} (a newer incarnation owns "
                f"this shard)"
            )

    # -- write ---------------------------------------------------------- #

    def write(self, snapshot: Dict[str, Any]) -> str:
        """Persist one snapshot atomically; prunes old files; returns path.

        The file payload wraps the snapshot with its checksum::

            {"checksum": "<sha256>", "snapshot": {...}}

        Two snapshots at the same iteration (e.g. a registration burst
        between updates) overwrite — newer state strictly supersedes.
        """
        from repro.persist.snapshot import canonical_json

        iteration = int(snapshot["optimizer"]["iteration"])
        # One serialization: the bytes checksummed (``snapshot_checksum``'s
        # form) are the bytes written.  The epoch sits outside that body —
        # it describes the *writer*, not the core state.
        body = canonical_json(snapshot)
        checksum = sha256(body.encode("utf-8")).hexdigest()
        epoch = "" if self.epoch is None else f'"epoch":{self.epoch},'
        payload = f'{{"checksum":"{checksum}",{epoch}"snapshot":{body}}}\n'
        path = self._path_for(iteration)
        with self._lock:
            self._check_fence_locked()
            if self._segment is not None:
                # Superseded: the next append opens a fresh segment.  Synced,
                # so a fallback past this snapshot finds this one complete.
                os.fsync(self._segment.fileno())
                self._segment.close()
                self._segment = None
            write_bytes_atomic(path, payload.encode("utf-8"))
            self.log_bytes = 0
            self._prune_locked(keep=path)
        return path

    def _prune_locked(self, keep: str) -> None:
        paths = self.snapshot_paths()
        doomed = [path for path in paths[self.retain:] if path != keep]
        # A segment whose successor was opened (named) below the oldest
        # retained snapshot's iteration holds nothing that snapshot lacks.
        oldest = min(map(_name_iteration, paths[:self.retain] + [keep]))
        segments = self.segment_paths()
        doomed += [
            path for path, successor in zip(segments, segments[1:])
            if _name_iteration(successor) < oldest
        ]
        for path in doomed:
            try:
                os.unlink(path)
            except OSError:
                pass  # already gone (concurrent pruner) — harmless

    # -- log ------------------------------------------------------------ #

    def append(self, kind: int, iteration_before: int, core, payload: bytes) -> int:
        """Append one record under the writer lock, fence checked first (a
        refused append leaves no bytes); returns the record's size."""
        fields = _FIELDS.pack(
            len(payload), kind, -1 if self.epoch is None else self.epoch,
            iteration_before, core.checkouts_served, core.rejected_messages,
            core.duplicates_suppressed,
        )
        crc = zlib.crc32(payload, zlib.crc32(fields))
        record = _PREFIX.pack(_MAGIC, crc) + fields + payload
        with self._lock:
            self._check_fence_locked()
            if self._segment is None:
                segments = self.segment_paths()
                serial = (
                    int(os.path.basename(segments[-1]).split("-")[1]) + 1
                    if segments else 0
                )
                name = f"{_SEGMENT_PREFIX}{serial:08d}-{iteration_before:012d}.log"
                path = os.path.join(self.log_dir, name)
                self._segment = open(path, "xb", buffering=0)
                fsync_directory(self.log_dir)
            if self._segment.write(record) != len(record):
                raise OSError(f"short write to {self._segment.name}")
            self.log_bytes += len(record)
        return len(record)

    def sync_log(self) -> None:
        """``fsync`` the live segment: every append so far is on disk."""
        os.fsync(self._segment.fileno())

    # -- read ----------------------------------------------------------- #

    def load_latest(self) -> Optional[Tuple[Dict[str, Any], str]]:
        """Newest valid snapshot as ``(snapshot, path)``; ``None`` if empty.

        Walks newest → oldest, skipping torn/truncated/corrupt files (the
        fallback the checkpoint discipline promises).  If snapshot files
        exist but *none* is valid, raises :class:`SnapshotError` — a
        state dir full of garbage should stop a resume, not silently
        start the run over.  A snapshot stamped with a *newer* schema
        version also raises: falling back past it would resurrect stale
        state.
        """
        paths = self.snapshot_paths()
        if not paths:
            return None
        for path in paths:
            snapshot = self._load_one(path)
            if snapshot is not None:
                return snapshot, path
        raise SnapshotError(
            f"no valid snapshot among {len(paths)} file(s) in "
            f"{self.snapshots_dir}"
        )

    def _load_one(self, path: str) -> Optional[Dict[str, Any]]:
        from repro.persist.snapshot import SNAPSHOT_VERSION, snapshot_checksum

        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None  # torn/truncated/unreadable — fall back
        if not isinstance(payload, dict):
            return None
        snapshot = payload.get("snapshot")
        checksum = payload.get("checksum")
        if not isinstance(snapshot, dict) or not isinstance(checksum, str):
            return None
        version = snapshot.get("snapshot_version")
        if isinstance(version, int) and version > SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path} is a version-{version} snapshot; this build reads "
                f"up to {SNAPSHOT_VERSION}"
            )
        if snapshot_checksum(snapshot) != checksum:
            return None  # bits landed but don't add up — fall back
        return snapshot

    def recover(self, model) -> Optional[Recovered]:
        """Newest valid snapshot + log replay (read-only); ``None`` for an
        empty dir.  A record stamped *above* the core's iteration means
        acked history is missing: :class:`SnapshotError`."""
        from repro.persist.snapshot import restore_core
        from repro.serve import wire  # lazy: persist stays importable below serve

        loaded = self.load_latest()
        if loaded is None:
            return None
        snapshot, path = loaded
        core = restore_core(snapshot, model)
        replayed = 0
        for segment in self.segment_paths():
            for record in read_segment(segment):
                if record.iteration_before < core.iteration:
                    continue
                if record.iteration_before > core.iteration:
                    raise SnapshotError(
                        f"{segment} resumes at iteration {record.iteration_before} but"
                        f" state ends at {core.iteration}: acked updates are missing"
                    )
                try:
                    if record.kind == KIND_JOIN:
                        core.register_device(wire.decode_join_request(record.payload))
                    else:
                        core.handle_checkins(wire.decode_checkin_batch(record.payload))
                except wire.WireError as error:
                    if error.code != wire.ErrorCode.VERSION_MISMATCH:
                        raise
                    raise SnapshotError(
                        f"state dir {self.state_dir}: cannot replay {segment} ({error})"
                    ) from error
                # "At least": a join may sit at the same iteration as a
                # later snapshot, whose counters must not step back.
                core.advance_counters(
                    record.checkouts, record.rejected, record.duplicates
                )
                replayed += 1
        return Recovered(core, path, replayed)


class Checkpointer:
    """Policy-driven durability for one core: log commits + snapshots.

    The caller (the service, under its core lock) invokes :meth:`commit`
    with each accepted request before its ack, :meth:`checkpoint` to force
    a snapshot, :meth:`after_update` after a change it holds no record of.
    """

    def __init__(self, store: SnapshotStore, policy: Optional[CheckpointPolicy] = None):
        self.store = store
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.snapshots_written = 0
        self._last_iteration = -1
        self._last_time = time.monotonic()
        # No snapshot to replay onto yet, or a commit failed: snapshot next.
        self._needs_snapshot = True
        self.attach_metrics(None)

    def attach_metrics(self, metrics=None) -> None:
        """(Re)bind obs instruments (no-op singletons when ``None``)."""
        from repro.obs.metrics import NULL_REGISTRY

        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_snapshots = registry.counter("checkpoint_snapshots_total")
        self._m_bytes = registry.counter("checkpoint_bytes_total")
        self._m_write_seconds = registry.histogram("checkpoint_write_seconds")
        self._m_commits = registry.counter("checkpoint_log_commits_total")
        self._m_log_bytes = registry.counter("checkpoint_log_bytes_total")
        self._m_fsync_seconds = registry.histogram("checkpoint_fsync_seconds")
        self._m_compactions = registry.counter("checkpoint_compactions_total")

    def checkpoint(self, core) -> str:
        """Write a snapshot now, unconditionally; returns its path."""
        from repro.persist.snapshot import snapshot_core

        write_start = time.perf_counter()
        compacting = self.store.log_bytes > 0
        path = self.store.write(snapshot_core(core))
        self._m_write_seconds.observe(time.perf_counter() - write_start)
        self._m_snapshots.inc()
        if compacting:
            self._m_compactions.inc()
        try:
            self._m_bytes.inc(os.path.getsize(path))
        except OSError:
            pass  # racing a prune; size accounting is best-effort
        self.snapshots_written += 1
        self._last_iteration = core.iteration
        self._last_time = time.monotonic()
        self._needs_snapshot = False
        return path

    def commit(self, core, payload: bytes, iteration_before: int, join=False) -> None:
        """Log one accepted ``/v1/checkins`` (or ``/v1/join``) body, ``fsync``ed
        when the policy says (a join: always); ack only after.  A failure
        raises (→ 500, no ack) and turns the next call, even a duplicate-
        only retry, into a snapshot covering what this one left undurable."""
        start = time.perf_counter()
        compact = self._needs_snapshot
        if not (join or compact or core.iteration != iteration_before):
            return  # applied nothing, owes nothing
        self._needs_snapshot = True  # owed if anything below raises
        if not compact:
            kind = KIND_JOIN if join else KIND_CHECKINS
            size = self.store.append(kind, iteration_before, core, payload)
            compact = self.store.log_bytes >= COMPACT_LOG_BYTES
            now = time.monotonic()
            if join or self.policy.due(
                core.iteration, self._last_iteration, now, self._last_time
            ):
                sync_start = time.perf_counter()
                self.store.sync_log()
                self._m_fsync_seconds.observe(time.perf_counter() - sync_start)
                self._last_iteration = core.iteration
                self._last_time = now
            self._m_commits.inc()
            self._m_log_bytes.inc(size)
            self._m_write_seconds.observe(time.perf_counter() - start)
        if compact:
            self.checkpoint(core)
        self._needs_snapshot = False

    def after_update(self, core) -> Optional[str]:
        """Snapshot iff the policy says this unlogged change warrants it."""
        if self.policy.due(
            core.iteration, self._last_iteration, time.monotonic(), self._last_time
        ):
            return self.checkpoint(core)
        return None
