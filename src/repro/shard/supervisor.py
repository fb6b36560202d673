"""Health-checked worker supervision with fenced failover.

The :class:`ShardSupervisor` owns the live incarnation of every shard
slot.  Its job splits in three:

* **Launch** — pick a fixed port per shard, advance the shard's fence
  (:meth:`~repro.persist.checkpoint.SnapshotStore.advance_fence`), and
  spawn the worker at the returned epoch.  Fence-then-spawn means no
  two incarnations of a shard can ever both hold a writable epoch.
  Shards share nothing, so :meth:`~ShardSupervisor.start` runs that
  sequence for all of them at once.
* **Watch** — a daemon thread probes each worker every
  ``health_interval`` seconds: process liveness first (a SIGKILLed
  worker is detected without any network timeout), then a heartbeat
  ``GET /v1/status``.  Two consecutive probe failures
  declare a live-but-wedged worker dead (the zombie case — the process
  exists, the service doesn't answer).
* **Fail over** — advance the fence (fencing the old incarnation's
  writes *before* anything reads the snapshot and log to recover
  from), then respawn on the shard's own port.  When the port cannot
  be rebound — typically because the zombie still holds the listening
  socket — the shard is restored onto a **sibling slot**: a fresh
  process on a new ephemeral port, recovered from the shard's state
  dir (snapshot + log tail), and the routing table repoints.  Either
  way the replacement serves the exact durable state; the fenced
  zombie's late writes are refused at the store and its late answers
  carry a stale epoch the front end rejects.

The front end reads :meth:`endpoints` on every request, so a repointed
shard takes effect immediately; requests that race the failover window
get a retryable 503 until the replacement announces.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import NULL_REGISTRY
from repro.persist.checkpoint import SnapshotStore
from repro.serve.client import ServiceClient
from repro.shard.routing import StaticEndpoints
from repro.shard.worker import ShardWorker, WorkerSpawnError
from repro.utils.exceptions import ReproError


#: Consecutive heartbeat failures before a *live* process is declared
#: wedged (process exits fail over on the first sweep regardless), and
#: the in-place respawn attempts (linear backoff) before failing over to
#: a sibling slot.  No caller, tests included, ever set them.
_HEARTBEAT_MISSES = 2
_SPAWN_ATTEMPTS = 3
_SPAWN_BACKOFF = 0.2


class SupervisorError(ReproError):
    """The supervisor was driven outside its lifecycle contract."""


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    # All probes are held open together, so the ports are distinct even
    # though nothing binds them again until the workers come up.
    with ExitStack() as stack:
        probes = [stack.enter_context(socket.socket()) for _ in range(count)]
        for probe in probes:
            probe.bind((host, 0))
        return [probe.getsockname()[1] for probe in probes]


class ShardSupervisor:
    """Spawn, health-check, and fail over a tier of :class:`ShardWorker`\\ s.

    Parameters
    ----------
    workers:
        One :class:`~repro.shard.worker.ShardWorker` per shard, in shard
        order.
    health_interval:
        Seconds between probe sweeps (the detection latency floor).
    heartbeat_timeout:
        Socket timeout of one heartbeat ``GET /v1/status``.
    kill_zombies:
        SIGKILL a live-but-wedged incarnation before respawning
        (default).  ``False`` leaves the zombie running — the
        fence/stale-epoch tests use this to prove refusal is what
        protects the state, not the kill.
    """

    def __init__(
        self,
        workers: Sequence[ShardWorker],
        health_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        kill_zombies: bool = True,
        metrics=None,
    ):
        if not workers:
            raise ValueError("a supervisor needs at least one worker")
        self.workers: List[ShardWorker] = list(workers)
        self.health_interval = float(health_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.kill_zombies = bool(kill_zombies)
        self._table = StaticEndpoints({})
        self._failover_lock = threading.Lock()
        self._misses = [0] * len(self.workers)
        self._heartbeat_clients: Dict[int, Tuple[str, ServiceClient]] = {}
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stats_lock = threading.Lock()
        self._stats = {
            "failovers": 0,
            "process_exit_failovers": 0,
            "heartbeat_failovers": 0,
            "respawns_in_place": 0,
            "sibling_failovers": 0,
            "heartbeat_misses": 0,
        }
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._metrics = registry
        self._m_stats = {
            key: registry.counter(f"shard_supervisor_{key}_total")
            for key in self._stats
        }
        self._m_heartbeat_seconds = registry.histogram(
            "shard_supervisor_heartbeat_seconds"
        )
        self._m_fence_epochs = {
            shard: registry.gauge("shard_fence_epoch", shard=str(shard))
            for shard in range(len(self.workers))
        }

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> "ShardSupervisor":
        """Fence + spawn every shard at epoch, then start the watch thread.

        The shards come up side by side, one thread each blocked on its
        child's announcement, so the tier is reachable in the time of its
        slowest worker.  All or nothing: if any shard fails, every
        sibling is reaped, the table is emptied and the first error
        raised.
        """
        if self._started:
            raise SupervisorError("supervisor already started")
        self._started = True
        errors: List[Exception] = []

        def bring_up(shard: int, worker: ShardWorker, port: int) -> None:
            try:
                epoch = SnapshotStore(worker.shard_dir).advance_fence()
                self._m_fence_epochs[shard].set(epoch)
                url = self._spawn_with_retry(worker, epoch, port)
                self._table.set(shard, url, epoch)
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        ports = _free_ports(len(self.workers))
        threads = [
            threading.Thread(target=bring_up, args=(shard, worker, ports[shard]))
            for shard, worker in enumerate(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            self._shutdown_workers(graceful=False)
            for shard in range(len(self.workers)):
                self._table.set(shard, None)
            raise errors[0]
        self._thread = threading.Thread(
            target=self._watch_loop, name="shard-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, graceful: bool = True) -> Dict[int, Optional[int]]:
        """Stop watching, shut every worker down; per-shard exit codes.

        ``graceful`` terminates with SIGTERM so each worker drains and
        flushes a final snapshot (exit code 0 = clean).
        """
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        return self._shutdown_workers(graceful)

    def _shutdown_workers(self, graceful: bool) -> Dict[int, Optional[int]]:
        codes: Dict[int, Optional[int]] = {}
        for shard, worker in enumerate(self.workers):
            if graceful:
                codes[shard] = worker.terminate()
            else:
                worker.stop()
                codes[shard] = None
        return codes

    # -- routing table --------------------------------------------------- #

    def endpoints(self) -> Dict[int, Tuple[str, int]]:
        """Current routing table: ``{shard: (url, epoch)}``.

        A shard mid-failover (or down) is absent — callers answer its
        traffic with a retryable 503 until it reappears.
        """
        return self._table.endpoints()

    def stats_snapshot(self) -> Dict[str, int]:
        """Consistent snapshot of the supervision counters."""
        with self._stats_lock:
            return dict(self._stats)

    def _bump(self, key: str, by: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += by
        self._m_stats[key].inc(by)

    # -- failover -------------------------------------------------------- #

    def failover(self, shard: int, reason: str = "manual") -> str:
        """Fence the old incarnation and bring up a replacement.

        Respawn on the shard's own port first; if the address cannot be
        rebound (a live zombie still holds the socket), restore the
        shard onto a sibling slot at a fresh ephemeral port.  Returns
        the replacement's URL.  Serialized — concurrent detections of
        the same death perform one failover.
        """
        with self._failover_lock:
            worker = self.workers[shard]
            # Unroute first: traffic hitting the dying incarnation's
            # address during the window gets a clean 503 from the front
            # end instead of a socket error from a corpse.
            self._table.set(shard, None)
            # Fence BEFORE reading anything: after this returns, a write
            # from the old epoch is refused, so the snapshot + log the
            # replacement recovers is the newest state that can ever
            # exist for the old incarnation.
            epoch = SnapshotStore(worker.shard_dir).advance_fence()
            self._m_fence_epochs[shard].set(epoch)
            if worker.alive:
                if self.kill_zombies:
                    worker.sigkill()
                else:
                    # Leave the zombie running (fence tests): it keeps
                    # its socket, so the in-place respawn below fails to
                    # bind and the shard lands on a sibling slot.
                    worker.orphan()
            own_port = worker.port
            try:
                url = self._spawn_with_retry(worker, epoch, own_port)
                self._bump("respawns_in_place")
            except WorkerSpawnError:
                # Sibling slot: same durable shard, fresh address.
                url = worker.spawn(epoch=epoch, port=0)
                self._bump("sibling_failovers")
            self._misses[shard] = 0
            self._table.set(shard, url, epoch)
            self._bump("failovers")
            return url

    def _spawn_with_retry(self, worker: ShardWorker, epoch: int, port: int) -> str:
        last_error: Optional[WorkerSpawnError] = None
        for attempt in range(_SPAWN_ATTEMPTS):
            try:
                return worker.spawn(epoch=epoch, port=port)
            except WorkerSpawnError as error:
                last_error = error
                time.sleep(_SPAWN_BACKOFF * (attempt + 1))
        raise last_error

    # -- the watch loop -------------------------------------------------- #

    def _heartbeat_client(self, shard: int, url: str) -> ServiceClient:
        cached = self._heartbeat_clients.get(shard)
        if cached is not None and cached[0] == url:
            return cached[1]
        client = ServiceClient(url, timeout=self.heartbeat_timeout, retries=0)
        self._heartbeat_clients[shard] = (url, client)
        return client

    def _watch_loop(self) -> None:
        while not self._stop_event.wait(self.health_interval):
            for shard, worker in enumerate(self.workers):
                if self._stop_event.is_set():
                    return
                try:
                    self._probe(shard, worker)
                except WorkerSpawnError:
                    # Replacement failed to come up; the shard stays
                    # unrouted (503) and the next sweep tries again.
                    continue
                except Exception:  # noqa: BLE001 - the watcher must survive
                    continue

    def _probe(self, shard: int, worker: ShardWorker) -> None:
        if not worker.alive:
            self._bump("process_exit_failovers")
            self.failover(shard, reason="process-exit")
            return
        endpoint = self.endpoints().get(shard)
        if endpoint is None:
            # Unrouted but alive: a previous failover half-finished.
            self._bump("process_exit_failovers")
            self.failover(shard, reason="unrouted")
            return
        try:
            heartbeat_start = time.perf_counter()
            self._heartbeat_client(shard, endpoint[0]).status()
            self._m_heartbeat_seconds.observe(
                time.perf_counter() - heartbeat_start
            )
        except Exception:  # noqa: BLE001 - any probe failure is a miss
            self._misses[shard] += 1
            self._bump("heartbeat_misses")
            if self._misses[shard] >= _HEARTBEAT_MISSES:
                self._bump("heartbeat_failovers")
                self.failover(shard, reason="heartbeat")
        else:
            self._misses[shard] = 0


__all__ = ["ShardSupervisor", "SupervisorError"]
