"""Spawn, observe and stop the real ``repro-serve`` process.

Every server binds port 0, runs in its own process group, is SIGTERMed
(SIGKILLed on timeout, together with whatever is left of its group) and
has its stderr checked: a clean run exits 0 with no traceback.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.serve import ServiceClient

from catalog import SRC_DIR

_ANNOUNCE = re.compile(r"serving on (http://[\d.]+:\d+)$")


class ServerFailure(RuntimeError):
    """The server did not start, did not stop cleanly, or logged an error."""


class Server:
    """One ``repro-serve`` process tree.

    ``stderr_path`` receives the server's stderr (a file, not a pipe, so
    a chatty server can never block on a full pipe).
    """

    def __init__(self, extra_args: Sequence[str], stderr_path: str,
                 dim: int, classes: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._stderr_path = stderr_path
        self._stderr = open(stderr_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli",
             "--num-features", str(dim), "--num-classes", str(classes),
             "--port", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True, env=env,
            start_new_session=True,
        )
        self.url = ""
        try:
            self._await_reachable()
        except BaseException:
            self.kill()
            raise

    def _await_reachable(self, timeout: float = 60.0) -> None:
        # The announcement is the first thing on the pipe, so waiting for
        # the pipe to be readable bounds the readline.
        if not select.select([self.process.stdout], [], [], timeout)[0]:
            raise ServerFailure("repro-serve announced nothing")
        line = self.process.stdout.readline()
        match = _ANNOUNCE.match(line.strip())
        if not match:
            raise ServerFailure(f"repro-serve did not announce a URL: {line!r}")
        self.url = match.group(1)
        client = ServiceClient(self.url, timeout=5.0)
        deadline = time.monotonic() + timeout
        try:
            while True:
                try:
                    client.status()
                    return
                except Exception:  # noqa: BLE001 - any failure means "not yet"
                    if time.monotonic() > deadline:
                        raise ServerFailure("repro-serve never became reachable")
                    time.sleep(0.02)
        finally:
            client.close()

    def tree_pids(self) -> List[int]:
        """Live processes in the server's process group (== its session)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # pid (comm) state ppid pgrp ...; comm may hold spaces.
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[2]) == self.process.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the process tree, in MB."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout: float = 30.0) -> str:
        """SIGTERM the server and require a clean exit; returns its stderr.

        Only the top process is signalled: a sharded front end stops and
        reaps its own workers, which is part of what a clean exit means.
        """
        self.process.send_signal(signal.SIGTERM)
        try:
            code: Optional[int] = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        self.kill()
        with open(self._stderr_path) as handle:
            stderr = handle.read()
        if code != 0:
            raise ServerFailure(
                f"repro-serve exit code {code} after SIGTERM; stderr:\n{stderr}"
            )
        if "Traceback" in stderr:
            raise ServerFailure(f"traceback on repro-serve stderr:\n{stderr}")
        return stderr

    def kill(self) -> None:
        """SIGKILL whatever is left of the process group and reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def scrape(url: str) -> Dict[str, dict]:
    """One ``/v1/metrics?format=json`` document indexed for lookup.

    Returns ``{"hist": {(name, endpoint): entry}, "counters": {name: sum}}``
    where ``endpoint`` is the series' ``endpoint`` label or ``""``.
    """
    client = ServiceClient(url, timeout=10.0)
    try:
        snapshot = client.metrics_snapshot()
    finally:
        client.close()
    if not snapshot.get("enabled"):
        raise ServerFailure(f"{url} was not spawned with --metrics")
    hist = {}
    for entry in snapshot["histograms"]:
        labels = entry.get("labels", {})
        if "shard" in labels:
            continue  # per-worker series of a merged scrape; scrape workers directly
        hist[(entry["name"], labels.get("endpoint", ""))] = entry
    counters: Dict[str, float] = {}
    for entry in snapshot["counters"]:
        counters[entry["name"]] = counters.get(entry["name"], 0.0) + entry["value"]
    return {"hist": hist, "counters": counters}


def hist_ms(doc: Dict[str, dict], name: str, endpoint: str = "", stat: str = "p50") -> float:
    """Milliseconds from a scraped seconds histogram; 0.0 when empty.

    ``stat`` is an exact window percentile (``p50``/``p95``/``p99``) or
    ``mean`` (``sum / count``).
    """
    entry = doc["hist"].get((name, endpoint))
    if entry is None or not entry["count"]:
        return 0.0
    if stat == "mean":
        return entry["sum"] / entry["count"] * 1e3
    return entry["percentiles"][stat] * 1e3
