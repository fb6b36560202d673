"""Fault injection for the serve path: lossy proxy, process killer, power cut.

Durability claims are only worth what a fault campaign says they are, so
this module provides the fault sources the durable-serving tests inject:

* :class:`FaultyProxy` — an in-process TCP proxy between a client and a
  live :class:`~repro.serve.service.CrowdService`.  Per connection it
  draws one fault from a **seeded** RNG: refuse outright, drop the
  connection mid-request (the server never sees a complete request),
  swallow the response after the server has fully processed the request
  (the client never sees the ack — the double-apply trap), delay the
  response, or pass through.  The proxy is HTTP-aware just enough to know
  where a request ends (Content-Length), so "drop the response" really
  means *after* the upstream applied the update.  One request per proxied
  connection: closing after each exchange also exercises the client's
  stale-socket reconnect path.
* :class:`ServeProcess` — spawn / SIGKILL / restart a real ``repro-serve``
  subprocess, scraping the announced URL.  SIGKILL is the crash under
  test: no handlers run, no flush happens; whatever the checkpoint
  discipline made durable is all that survives.
* :class:`WorkerKiller` — the sharded-tier campaign: every K driven
  batches, SIGKILL one random (seeded) live worker under a
  :class:`~repro.shard.supervisor.ShardSupervisor` and let its health
  loop fail the shard over.  The client keeps retrying through the
  front end; the acceptance gate is per-shard bit-parity with an
  uninterrupted run.
* :func:`tear_log_tail` / :func:`lose_log_tail` — a power cut's outcomes
  on a dead server's log: cut *inside* the last record, or ``k`` back.

All record counters so tests can assert the campaign actually injected
faults rather than passing vacuously.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.persist.checkpoint import RECORD_HEADER_BYTES, SnapshotStore, read_segment
from repro.serve import http1
from repro.serve.launch import LaunchError, crash, launch, shut_down
from repro.utils.exceptions import ReproError


class FaultInjectionError(ReproError):
    """The fault harness itself failed (not an injected fault)."""


def _read_http_message(sock: socket.socket) -> Optional[bytes]:
    """Read one full HTTP message (headers + Content-Length body).

    Returns the raw bytes as they arrived, or ``None`` if the peer closed
    before a full message this wire accepts (:mod:`repro.serve.http1`).
    """
    lines: List[bytes] = []
    with sock.makefile("rb") as rfile:
        def tee(limit: int) -> bytes:
            lines.append(rfile.readline(limit))
            return lines[-1]

        try:
            _, headers = http1.read_head(tee)
            body = http1.read_body(rfile, http1.body_length(headers) or 0)
        except (http1.FramingError, ConnectionResetError):
            return None
    return b"".join(lines) + body


class FaultyProxy:
    """Seeded lossy TCP proxy in front of one HTTP upstream.

    Parameters
    ----------
    upstream:
        The real service — a base URL (``http://127.0.0.1:8900``) or a
        ``(host, port)`` pair.  May also be retargeted between requests
        via :meth:`set_upstream` (a server that restarted on a new port).
    seed:
        Seeds the fault plan; the same seed injects the same fault
        sequence (per accepted connection, in accept order).
    refuse / drop_request / drop_response / delay:
        Per-connection fault probabilities, evaluated in that order
        (their sum must be <= 1; the remainder passes through).
    delay_seconds:
        How long a delayed response is held back.
    """

    def __init__(
        self,
        upstream,
        host: str = "127.0.0.1",
        *,
        seed: int = 0,
        refuse: float = 0.0,
        drop_request: float = 0.0,
        drop_response: float = 0.0,
        delay: float = 0.0,
        delay_seconds: float = 0.02,
    ):
        if isinstance(upstream, str):
            parsed = urlparse(upstream)
            self._upstream = (parsed.hostname or "127.0.0.1", int(parsed.port or 80))
        else:
            upstream_host, upstream_port = upstream
            self._upstream = (str(upstream_host), int(upstream_port))
        for name, p in (("refuse", refuse), ("drop_request", drop_request),
                        ("drop_response", drop_response), ("delay", delay)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")
        if refuse + drop_request + drop_response + delay > 1.0 + 1e-9:
            raise ValueError("fault probabilities must sum to <= 1")
        self._probabilities = (refuse, drop_request, drop_response, delay)
        self._delay_seconds = float(delay_seconds)
        self._rng = random.Random(seed)
        self._plan_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counts: Dict[str, int] = {
            "connections": 0, "refused": 0, "requests_dropped": 0,
            "responses_dropped": 0, "delayed": 0, "passed": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self._host, self._port = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------ #

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port

    def stats_snapshot(self) -> Dict[str, int]:
        """A *consistent* snapshot of the fault counters.

        Taken under the same lock the handler threads increment with, so
        invariants across counters (e.g. ``connections == refused +
        requests_dropped + responses_dropped + delayed + passed`` once
        traffic has drained) hold within one snapshot — reading the
        fields one by one off a live proxy can tear between increments.
        """
        with self._counter_lock:
            return dict(self._counts)

    def set_upstream(self, upstream_port: int, upstream_host: str = "127.0.0.1") -> None:
        """Point subsequent connections at a (restarted) upstream."""
        self._upstream = (upstream_host, int(upstream_port))

    def start(self) -> "FaultyProxy":
        if self._running:
            raise FaultInjectionError("proxy already started")
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="faulty-proxy", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        # Closing the listener does not wake a thread blocked in
        # accept() on Linux; poke it with a throwaway connection (the
        # accept loop re-checks _running before counting anything).
        try:
            with socket.create_connection((self._host, self._port), timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for worker in self._workers:
            worker.join(timeout=1.0)
        self._workers.clear()

    def __enter__(self) -> "FaultyProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- internals ------------------------------------------------------ #

    def _draw_fault(self) -> str:
        with self._plan_lock:
            roll = self._rng.random()
        refuse, drop_request, drop_response, delay = self._probabilities
        if roll < refuse:
            return "refused"
        if roll < refuse + drop_request:
            return "requests_dropped"
        if roll < refuse + drop_request + drop_response:
            return "responses_dropped"
        if roll < refuse + drop_request + drop_response + delay:
            return "delayed"
        return "passed"

    def _count(self, key: str) -> None:
        with self._counter_lock:
            self._counts[key] += 1

    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if not self._running:
                # stop()'s wake-up poke, not real traffic.
                client.close()
                return
            self._count("connections")
            fault = self._draw_fault()
            if fault == "refused":
                self._count("refused")
                client.close()
                continue
            worker = threading.Thread(
                target=self._handle, args=(client, fault), daemon=True
            )
            worker.start()
            self._workers.append(worker)

    def _handle(self, client: socket.socket, fault: str) -> None:
        upstream: Optional[socket.socket] = None
        try:
            client.settimeout(30.0)
            if fault == "requests_dropped":
                # Take the first bytes (the client is committed) and cut
                # the line — the upstream never hears about this request.
                try:
                    client.recv(4096)
                except OSError:
                    pass
                self._count("requests_dropped")
                return
            request = _read_http_message(client)
            if request is None:
                return  # client went away first — nothing to do
            upstream = socket.create_connection(self._upstream, timeout=30.0)
            upstream.settimeout(30.0)
            upstream.sendall(request)
            response = _read_http_message(upstream)
            if response is None:
                return  # upstream died mid-response; client sees the cut
            if fault == "responses_dropped":
                # The upstream has fully processed the request; the ack
                # dies here.  This is the duplicate-suppression trap.
                self._count("responses_dropped")
                return
            if fault == "delayed":
                self._count("delayed")
                time.sleep(self._delay_seconds)
            else:
                self._count("passed")
            client.sendall(response)
        except OSError:
            pass  # injected chaos causes real socket errors; that's fine
        finally:
            if upstream is not None:
                try:
                    upstream.close()
                except OSError:
                    pass
            try:
                client.close()
            except OSError:
                pass


def _log_tail(state_dir: str) -> Tuple[str, List[int]]:
    """The newest log segment and the byte offsets its records start at."""
    path = SnapshotStore(state_dir).segment_paths()[-1]
    offsets = [0]
    for record in read_segment(path):
        offsets.append(offsets[-1] + RECORD_HEADER_BYTES + len(record.payload))
    return path, offsets


def tear_log_tail(state_dir: str, keep: float = 0.5) -> int:
    """Cut the log inside its last record, keeping the fraction ``keep``
    (in ``[0, 1)``) of its bytes; returns how many bytes that left."""
    path, offsets = _log_tail(state_dir)
    kept = int((offsets[-1] - offsets[-2]) * keep)
    os.truncate(path, offsets[-2] + kept)
    return kept


def lose_log_tail(state_dir: str, records: int) -> int:
    """Cut the newest segment ``records`` whole records (or as many as
    it has) before its end; returns how many went."""
    path, offsets = _log_tail(state_dir)
    dropped = min(records, len(offsets) - 1)
    os.truncate(path, offsets[-1 - dropped])
    return dropped


class ServeProcess:
    """A real ``repro-serve`` subprocess you can crash and resurrect.

    Parameters
    ----------
    cli_args:
        Arguments after ``repro-serve`` (e.g. ``["--num-features", "4",
        ...]``).  Use a fixed ``--port`` so a restart comes back at the
        same address.
    env:
        Environment for the subprocess; defaults to ``os.environ`` (the
        caller must ensure ``repro`` is importable, e.g. via PYTHONPATH).
    """

    def __init__(self, cli_args: List[str], env: Optional[Dict[str, str]] = None):
        self.cli_args = list(cli_args)
        self.env = dict(os.environ if env is None else env)
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self.kills = 0

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def start(self, timeout: float = 20.0, attempts: int = 5) -> str:
        """Spawn and wait for the ``serving on <url>`` announcement."""
        if self.running:
            raise FaultInjectionError("server already running")
        last_error: Optional[LaunchError] = None
        for attempt in range(attempts):
            try:
                self.process, self.url = launch(self.cli_args, self.env, timeout)
                return self.url
            except LaunchError as error:
                # E.g. the killed predecessor's port not yet released.
                last_error = error
                time.sleep(0.2 * (attempt + 1))
        raise FaultInjectionError(f"after {attempts} attempts: {last_error}")

    def sigkill(self) -> None:
        """The crash under test: no handlers, no flush, instant death."""
        if not self.running:
            raise FaultInjectionError("no running server to kill")
        crash(self.process)
        self.kills += 1
        self.process = None

    def terminate(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM; returns the exit code."""
        if self.process is None:
            raise FaultInjectionError("no server process to terminate")
        code = shut_down(self.process, timeout)
        self.process = None
        return code

    def stop(self) -> None:
        """Best-effort cleanup for test teardown."""
        if self.running:
            crash(self.process)
        self.process = None


class WorkerKiller:
    """SIGKILL a random live shard worker every ``every`` driven batches.

    The campaign driver calls :meth:`after_batch` once per client batch;
    every ``every``-th call picks one live worker under the supervisor
    (seeded RNG, so the kill schedule is reproducible) and crashes it
    with SIGKILL — no handlers, no flush.  Detection and failover are
    deliberately left to the supervisor's health loop: the campaign
    injects the death, the tier under test must notice and recover.

    Parameters
    ----------
    supervisor:
        The :class:`~repro.shard.supervisor.ShardSupervisor` whose
        workers are fair game.
    every:
        Kill cadence in batches (>= 1).
    seed:
        Seeds the victim choice.
    max_kills:
        Stop killing after this many crashes (``None`` = unbounded) —
        lets a campaign end with a quiet tail so the tier provably
        converges back to healthy.
    """

    def __init__(self, supervisor, every: int = 5, seed: int = 0,
                 max_kills: Optional[int] = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._supervisor = supervisor
        self.every = int(every)
        self._rng = random.Random(seed)
        self.max_kills = max_kills
        self._lock = threading.Lock()
        self.batches_seen = 0
        self.kills = 0
        #: Shard indices in kill order — the campaign's reproducible trace.
        self.killed_shards: List[int] = []

    def after_batch(self) -> Optional[int]:
        """Count one batch; maybe kill.  Returns the shard killed (or None)."""
        with self._lock:
            self.batches_seen += 1
            if self.batches_seen % self.every != 0:
                return None
            if self.max_kills is not None and self.kills >= self.max_kills:
                return None
            live = [
                shard for shard, worker in enumerate(self._supervisor.workers)
                if worker.alive
            ]
            if not live:
                return None  # everything already dead/mid-failover
            shard = live[self._rng.randrange(len(live))]
            try:
                self._supervisor.workers[shard].sigkill()
            except ReproError:
                return None  # lost the race with a failover — fine
            self.kills += 1
            self.killed_shards.append(shard)
            return shard
