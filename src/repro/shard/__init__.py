"""Sharded durable serving: N workers, one front end, fenced failover.

The tier partitions devices across worker processes by stable hash of
``device_id`` (:mod:`repro.shard.routing`); each worker is a full
:class:`~repro.core.server_core.ServerCore` +
:class:`~repro.persist.checkpoint.Checkpointer` over its own
``shard-<k>/`` state directory.  A
:class:`~repro.shard.supervisor.ShardSupervisor` health-checks the
workers and fails a dead or wedged shard over onto a replacement
incarnation at a higher epoch, while the
:class:`~repro.shard.frontend.ShardFrontEnd` keeps one stable client
endpoint routing across whatever incarnations are live.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "ShardFrontEnd": "frontend",
    "ShardRouter": "routing",
    "ShardRoutingError": "routing",
    "ShardSupervisor": "supervisor",
    "ShardWorker": "worker",
    "StaticEndpoints": "routing",
    "SupervisorError": "supervisor",
    "WorkerSpawnError": "worker",
})
