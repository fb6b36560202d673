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

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "SNAPSHOT_VERSION": "snapshot",
    "STATE_FORMAT": "checkpoint",
    "CheckpointPolicy": "checkpoint",
    "Checkpointer": "checkpoint",
    "FaultInjectionError": "faults",
    "FaultyProxy": "faults",
    "FencedWriteError": "checkpoint",
    "ServeProcess": "faults",
    "SnapshotError": "snapshot",
    "SnapshotStore": "checkpoint",
    "WorkerKiller": "faults",
    "canonical_json": "snapshot",
    "restore_core": "snapshot",
    "snapshot_checksum": "snapshot",
    "snapshot_core": "snapshot",
})
