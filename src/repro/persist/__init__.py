"""Durable serving: snapshot/restore, checkpointing, and fault injection.

Three layers, bottom-up:

* :mod:`repro.persist.snapshot` — a canonical, versioned, bit-exact
  serialization of full :class:`~repro.core.server_core.ServerCore`
  state (``restore_core(snapshot_core(core))`` is indistinguishable from
  the live core, property-tested).
* :mod:`repro.persist.checkpoint` — write-ahead durability under a state
  dir: accepted requests appended to a checksummed, fenced log before
  their ack, snapshots as compaction points, recovery by log replay.
* :mod:`repro.persist.faults` — the adversary: a seeded lossy TCP proxy,
  a SIGKILL-able ``repro-serve`` subprocess harness, the sharded tier's
  every-K-batches worker killer and a power cut's torn / lost log tail,
  used by the durability tests and the chaos campaigns.

The checkpoint layer also carries the sharded tier's incarnation fence
(``epoch.json`` + :class:`FencedWriteError`) — see the
:mod:`repro.persist.checkpoint` docstring for the fencing protocol.
"""

from repro.persist.checkpoint import (
    STATE_FORMAT,
    Checkpointer,
    CheckpointPolicy,
    FencedWriteError,
    SnapshotStore,
)
from repro.persist.faults import (
    FaultInjectionError,
    FaultyProxy,
    ServeProcess,
    WorkerKiller,
)
from repro.persist.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    canonical_json,
    core_states_equal,
    describe_mismatch,
    restore_core,
    snapshot_checksum,
    snapshot_core,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "STATE_FORMAT",
    "CheckpointPolicy",
    "Checkpointer",
    "FaultInjectionError",
    "FaultyProxy",
    "FencedWriteError",
    "ServeProcess",
    "SnapshotError",
    "SnapshotStore",
    "WorkerKiller",
    "canonical_json",
    "core_states_equal",
    "describe_mismatch",
    "restore_core",
    "snapshot_checksum",
    "snapshot_core",
]
