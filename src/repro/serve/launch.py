"""Spawn and signal a real ``repro-serve`` subprocess.

The one place that knows how a :mod:`repro.serve.cli` process comes up —
``python -m repro.serve.cli ...`` whose first stdout line is ``serving on
<url>`` — and how it goes down: SIGKILL for the crash under test (no
handlers, no flush), SIGTERM for the graceful drain + final snapshot.
:class:`~repro.persist.faults.ServeProcess` and
:class:`~repro.shard.worker.ShardWorker` both drive their processes
through it and keep only their own policy (retries, epochs, orphans).
"""

from __future__ import annotations

import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.utils.exceptions import ReproError

#: The announcement :func:`repro.serve.cli.main` prints first.
ANNOUNCEMENT = "serving on "


class LaunchError(ReproError):
    """The process exited or stayed silent instead of announcing a URL."""


def launch(
    cli_args: List[str], env: Dict[str, str], timeout: float = 20.0
) -> Tuple[subprocess.Popen, str]:
    """Start ``repro-serve`` and wait for its announcement.

    Returns ``(process, url)``; with ``--port 0`` the URL is the only way
    to learn the bound port.  One attempt: a process that fails to
    announce (the dominant cause: the requested port is still held by a
    killed predecessor's lingering socket or a live zombie) is reaped
    and reported as :class:`LaunchError` carrying its stderr.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    deadline = time.monotonic() + timeout
    line = ""
    # Wait on the pipe, not in readline(): a child that stays alive and
    # silent must cost ``timeout``, not hang its parent.
    while select.select(
        [process.stdout], [], [], max(0.0, deadline - time.monotonic())
    )[0]:
        line = process.stdout.readline()
        if line.startswith(ANNOUNCEMENT) or not line:
            break
    if not line.startswith(ANNOUNCEMENT):
        process.kill()
        _, stderr = process.communicate()
        raise LaunchError(f"repro-serve failed to announce a URL; stderr:\n{stderr}")
    return process, line[len(ANNOUNCEMENT):].strip()


def crash(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Crash the process — instant death, stopped or not — and reap it."""
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=timeout)


def shut_down(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """Graceful SIGTERM (drain + final snapshot); returns the exit code.

    A process that outlives ``timeout`` is killed.
    """
    if process.poll() is None:
        # A suspended process cannot run its SIGTERM handler; wake it
        # first so graceful shutdown is actually graceful.
        process.send_signal(signal.SIGCONT)
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        crash(process, timeout)
    return process.returncode


__all__ = ["ANNOUNCEMENT", "LaunchError", "crash", "launch", "shut_down"]
