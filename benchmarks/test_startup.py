"""Start-up cost: what a process pays before its first round (record only).

Three tables, each row the median of ``REPEATS`` fresh processes:

* **import** — seconds, ``sys.modules`` size (all / ``repro.*``) and
  peak RSS after one statement in a new interpreter, for the bare
  package, the server entry point, the sharded front end's closure (the
  entry point plus ``repro.shard``, no NumPy) and a device's client
  imports (the peak is ``VmHWM``, not ``ru_maxrss``: the latter survives
  ``exec`` and would report the pytest process that forked the probe);
* **reachable** — seconds from spawning ``repro-serve`` to its first
  answered ``GET /v1/status``, unsharded and behind ``--workers 2 / 4``
  (the tier's workers come up side by side, so 2 → 4 on a 2-core box
  shows the cores, not the supervisor), and from SIGKILLing one worker
  of a 2-worker tier to its shard being routed again — the window in
  which the front end answers that shard's traffic 503: the watcher's
  0.5 s probe interval plus one worker start;
* **peak RSS per process** — ``VmHWM`` of the front end and of a worker
  (the larger of the two) of a live ``--workers 2 --metrics`` tier,
  after one join and check-out per shard, a check-in batch split across
  both, ``/v1/status`` and ``/v1/metrics?format=json``.

Nothing is asserted on a timing; the structural side (which packages
each entry point may load) is gated in ``tests/test_import_footprint.py``.

    PYTHONPATH=src python -m pytest benchmarks/test_startup.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import repro
from benchmarks._harness import publish_table
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.serve.client import ServiceClient
from repro.serve.launch import launch, shut_down
from repro.shard import ShardRouter, ShardSupervisor, ShardWorker

REPEATS = 5
#: Row label -> statement (the label is the statement but for the front end).
ENTRY_POINTS = {
    "import repro": "import repro",
    "import repro.serve.cli": "import repro.serve.cli",
    "front end: repro.serve.cli + repro.shard": (
        "import repro.serve.cli; repro.serve.cli.build_parser(); "
        "from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor, ShardWorker"
    ),
    "from repro.serve import RemoteDevice, ServiceClient":
        "from repro.serve import RemoteDevice, ServiceClient",
}
WORKER_COUNTS = (0, 2, 4)  # 0: one unsharded server
MODEL_ARGS = ["--num-features", "50", "--num-classes", "10"]

PROBE = """
import sys, time
start = time.perf_counter()
{statement}
seconds = time.perf_counter() - start
modules = list(sys.modules)
with open("/proc/self/status") as status:
    peak_kb = next(line for line in status if line.startswith("VmHWM")).split()[1]
import json
print(json.dumps({{
    "seconds": seconds,
    "modules": len(modules),
    "repro_modules": sum(name.split(".")[0] == "repro" for name in modules),
    "maxrss_mb": int(peak_kb) / 1024,
}}))
"""


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return {**os.environ, "PYTHONPATH": src}


def _import_row(statement: str) -> dict:
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", PROBE.format(statement=statement)],
            env=_child_env(), capture_output=True, text=True, check=True, timeout=60,
        ).stdout)
        for _ in range(REPEATS)
    ]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _seconds_to_reachable(workers: int, state_dir) -> float:
    args = [*MODEL_ARGS, "--port", "0"]
    if workers:
        args += ["--workers", str(workers), "--state-dir", str(state_dir)]
    start = time.perf_counter()
    process, url = launch(args, _child_env(), timeout=60.0)
    client = ServiceClient(url, timeout=10.0)
    try:
        status = client.status()
        seconds = time.perf_counter() - start
        assert len(status.shards or ()) == workers
    finally:
        client.close()
        assert shut_down(process) == 0
    return seconds


def _peak_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM")).split()[1]) / 1024


def _children(pid: int) -> list:
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _tier_peaks(state_dir) -> dict:
    """``VmHWM`` in MB of a ``--workers 2`` tier's front end and of its
    larger worker, after traffic that crosses both shards."""
    process, url = launch(
        [*MODEL_ARGS, "--port", "0", "--workers", "2", "--state-dir", str(state_dir),
         "--metrics"],
        _child_env(), timeout=60.0,
    )
    client = ServiceClient(url, timeout=10.0, retries=8, backoff=0.02)
    try:
        router = ShardRouter(2)
        messages = []
        for shard in range(2):
            device = next(d for d in range(64) if router.shard_of(d) == shard)
            token = client.join(device)
            checkout = client.checkout(CheckoutRequest(device, token, 0.0))
            messages.append(CheckinMessage(
                device, token, np.zeros(checkout.parameters.size), 1, 0,
                np.zeros(10, dtype=np.int64), checkout.server_iteration,
            ))
        client.checkins(messages)
        client.status()
        client.metrics_snapshot()
        return {
            "front end": _peak_mb(process.pid),
            "worker": max(_peak_mb(child) for child in _children(process.pid)),
        }
    finally:
        client.close()
        assert shut_down(process) == 0


def _seconds_unrouted_after_kill(state_dir) -> float:
    workers = [
        ShardWorker(
            shard, os.path.join(str(state_dir), f"shard-{shard}"),
            [*MODEL_ARGS, "--shard-count", "2", "--shard-index", str(shard)],
            env=_child_env(),
        )
        for shard in range(2)
    ]
    supervisor = ShardSupervisor(workers).start()
    try:
        start = time.perf_counter()
        workers[0].sigkill()
        while supervisor.endpoints().get(0, ("", 0))[1] < 1:
            assert time.perf_counter() - start < 60.0, "shard 0 never came back"
            time.sleep(0.005)
        return time.perf_counter() - start
    finally:
        supervisor.stop(graceful=False)


def test_startup_costs(tmp_path):
    imports = {label: _import_row(statement) for label, statement in ENTRY_POINTS.items()}
    reachable = {
        ("unsharded" if not workers else f"workers={workers}"): {
            "seconds": statistics.median(
                _seconds_to_reachable(workers, tmp_path / f"tier-{workers}-{run}")
                for run in range(REPEATS)
            )
        }
        for workers in WORKER_COUNTS
    }
    reachable["worker killed -> shard routed again"] = {
        "seconds": statistics.median(
            _seconds_unrouted_after_kill(tmp_path / f"failover-{run}")
            for run in range(REPEATS)
        )
    }

    peaks = [_tier_peaks(tmp_path / f"peaks-{run}") for run in range(REPEATS)]
    tier = {
        kind: {"vmhwm_mb": statistics.median(peak[kind] for peak in peaks)}
        for kind in peaks[0]
    }

    lines = [f"{'fresh interpreter (median of ' + str(REPEATS) + ')':<52s}"
             f"{'seconds':>8s} {'modules':>8s} {'repro.*':>8s} {'rss MB':>7s}"]
    for statement, row in imports.items():
        lines.append(
            f"{statement:<52s}{row['seconds']:8.3f} {row['modules']:8.0f} "
            f"{row['repro_modules']:8.0f} {row['maxrss_mb']:7.1f}"
        )
    lines.append("")
    lines.append(f"{'repro-serve spawn -> first /v1/status answered':<52s}{'seconds':>8s}")
    for name, row in reachable.items():
        lines.append(f"{name:<52s}{row['seconds']:8.3f}")
    lines.append("")
    lines.append(f"{'--workers 2 tier after mixed-shard traffic, VmHWM':<52s}{'MB':>8s}")
    for kind, row in tier.items():
        lines.append(f"{kind:<52s}{row['vmhwm_mb']:8.1f}")
    publish_table(
        "startup", "\n".join(lines),
        {**imports, **reachable, **{f"{kind} peak": row for kind, row in tier.items()}},
    )
