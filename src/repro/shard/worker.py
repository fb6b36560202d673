"""One shard's worker process: spawn, observe, signal, respawn.

A :class:`ShardWorker` owns a shard slot — its index, its ``shard-<k>/``
state dir, and the static ``repro-serve`` arguments every incarnation
shares — and spawns incarnations of it as subprocesses.  Each
:meth:`spawn` adds the per-incarnation arguments (``--port``,
``--state-dir``, ``--shard-epoch``) and waits for the CLI's
announcement (:func:`repro.serve.launch.launch`), so the caller learns
the bound address even with ephemeral ports.

The worker object deliberately does *not* decide when to (re)spawn or
which epoch to run — that is the
:class:`~repro.shard.supervisor.ShardSupervisor`'s job, which advances
the shard's fence first so a superseded incarnation cannot write.  What
lives here is the mechanics: process lifecycle, the announcement
handshake, and the crash/zombie signals the fault campaigns inject
(SIGKILL for instant death, SIGSTOP/SIGCONT for a wedged-then-waking
zombie).
"""

from __future__ import annotations

import os
import signal
import subprocess
from typing import Dict, List, Optional

from repro.serve.launch import LaunchError, crash, launch, shut_down
from repro.utils.exceptions import ReproError


class WorkerSpawnError(ReproError):
    """An incarnation failed to come up and announce its URL."""


class ShardWorker:
    """Spawnable ``repro-serve`` incarnations for one shard slot.

    Parameters
    ----------
    index:
        The shard this worker serves (0-based).
    shard_dir:
        The shard's durable state directory (``<state>/shard-<k>``).
    base_args:
        ``repro-serve`` arguments shared by every incarnation — the
        model/task flags, ``--shard-index``/``--shard-count``,
        checkpoint cadence — everything except
        ``--port``, ``--state-dir``, and ``--shard-epoch``, which
        :meth:`spawn` supplies per incarnation.
    env:
        Subprocess environment (default: inherit ``os.environ``; the
        caller must keep ``repro`` importable, e.g. via ``PYTHONPATH``).
    """

    def __init__(
        self,
        index: int,
        shard_dir: str,
        base_args: List[str],
        env: Optional[Dict[str, str]] = None,
    ):
        self.index = int(index)
        self.shard_dir = os.path.abspath(shard_dir)
        self.base_args = list(base_args)
        self.env = dict(os.environ if env is None else env)
        self.process: Optional[subprocess.Popen] = None
        #: Superseded incarnations deliberately left running (fenced
        #: zombies under test) — tracked so teardown can reap them.
        self.orphans: List[subprocess.Popen] = []
        self.url: Optional[str] = None
        self.port: Optional[int] = None
        #: Epoch of the current (or most recent) incarnation; -1 before
        #: the first spawn.
        self.epoch = -1
        #: Lifetime incarnations spawned successfully.
        self.spawns = 0
        self.kills = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    # -- lifecycle ------------------------------------------------------- #

    def spawn(self, epoch: int, port: int) -> str:
        """Start one incarnation; returns the announced URL.

        ``port=0`` binds an ephemeral port (read the real one back from
        :attr:`port`).  One attempt only — retry/sibling policy belongs
        to the supervisor.  Raises :class:`WorkerSpawnError` if the
        process exits or stays silent instead of announcing (the
        dominant cause: the requested port is still held by a live
        zombie or lingering socket).
        """
        if self.alive:
            raise WorkerSpawnError(
                f"shard {self.index} already has a live incarnation"
            )
        args = [
            *self.base_args,
            "--port", str(int(port)),
            "--state-dir", self.shard_dir,
            "--shard-epoch", str(int(epoch)),
        ]
        try:
            self.process, self.url = launch(args, self.env)
        except LaunchError as error:
            raise WorkerSpawnError(f"shard {self.index} epoch {epoch}: {error}")
        self.port = int(self.url.rsplit(":", 1)[1])
        self.epoch = int(epoch)
        self.spawns += 1
        return self.url

    # -- fault/shutdown signals ------------------------------------------ #

    def orphan(self) -> Optional[subprocess.Popen]:
        """Disown the current incarnation *without* killing it.

        The supervisor uses this under ``kill_zombies=False``: the old
        process keeps running — and keeps its listening socket — while a
        replacement is spawned, exactly the split-brain the epoch fence
        exists to defuse.  Returns the disowned process (also appended
        to :attr:`orphans` for teardown).
        """
        process = self.process
        self.process = None
        if process is not None and process.poll() is None:
            self.orphans.append(process)
        return process

    def sigkill(self) -> None:
        """Crash the incarnation: no handlers, no flush (fault campaign)."""
        if not self.alive:
            raise WorkerSpawnError(f"shard {self.index} has no live process")
        crash(self.process)
        self.kills += 1

    def suspend(self) -> None:
        """SIGSTOP: the process wedges mid-flight — the zombie under test."""
        if not self.alive:
            raise WorkerSpawnError(f"shard {self.index} has no live process")
        self.process.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        """SIGCONT a suspended incarnation (the zombie wakes up)."""
        if self.process is None:
            raise WorkerSpawnError(f"shard {self.index} has no process")
        self.process.send_signal(signal.SIGCONT)

    def wake_orphans(self) -> int:
        """SIGCONT every disowned incarnation; returns how many woke.

        After a zombie-preserving failover the suspended old incarnation
        lives in :attr:`orphans` (the slot's :attr:`process` is already
        the replacement) — this is how a fence test wakes it to prove
        its late writes are refused.
        """
        woken = 0
        for orphan in self.orphans:
            if orphan.poll() is None:
                orphan.send_signal(signal.SIGCONT)
                woken += 1
        return woken

    def terminate(self) -> Optional[int]:
        """Graceful SIGTERM (drain + final snapshot); returns exit code."""
        if self.process is None:
            return None
        code = shut_down(self.process)
        # Orphans never shut down gracefully — they are fenced zombies.
        self._reap(self.orphans)
        return code

    def stop(self) -> None:
        """Best-effort hard cleanup of the incarnation and any orphans."""
        self._reap([self.process, *self.orphans])

    def _reap(self, processes) -> None:
        for process in processes:
            if process is not None and process.poll() is None:
                crash(process)
        self.orphans.clear()


__all__ = ["ShardWorker", "WorkerSpawnError"]
