"""Crowd memory: what a simulated crowd holds, step by step (record only).

One fresh process per crowd size runs a ``sim_delayed``-shaped crowd
(20 MNIST-like samples per device, b = 20, every link delayed by
τ = 200·Δ, one pass) through the steps a figure run takes — generate the
data, partition it, construct the ``CrowdSimulator``, run it once — and
reads after each step its seconds, the process's peak RSS so far
(``VmHWM``, not ``ru_maxrss``: the latter survives ``exec`` and would
report the pytest process that forked the probe) and its current RSS
(``VmRSS``).  As in ``bench/run.py`` the training set is dropped once it
is partitioned, so construction can reuse its pages.  The per-device
lines are the resident growth since the partition, divided by M: after
construction, and after the run has written every device's buffers.

Nothing is asserted; the figures land in
``benchmarks/results/crowd_memory.{txt,json}``.

    PYTHONPATH=src python -m pytest benchmarks/test_crowd_memory.py -q -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from benchmarks._harness import publish_table

CROWD_SIZES = (1_000, 10_000)
STEPS = ("import", "data", "partition", "construct", "run")

PROBE = """
import time
start = time.perf_counter()
import json
import numpy as np
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network.latency import LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

def status_mb(field):
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith(field))
    return int(line.split()[1]) / 1024

rows = {{}}
def mark(step, since):
    rows[step] = {{"seconds": time.perf_counter() - since,
                   "peak_rss_mb": status_mb("VmHWM"), "rss_mb": status_mb("VmRSS")}}
    return time.perf_counter()

devices = {devices}
start = mark("import", start)
train, test = make_mnist_like(num_train=20 * devices, num_test=1000, seed=0)
start = mark("data", start)
parts = iid_partition(train, devices, np.random.default_rng(0))
del train
start = mark("partition", start)
tau = SimulationConfig(num_devices=devices).delay_in_sample_units(200.0)
config = SimulationConfig(
    num_devices=devices, batch_size=20, epsilon=10.0, num_passes=1, num_snapshots=4,
    link_delays=LinkDelays.uniform(tau),
)
simulator = CrowdSimulator(MulticlassLogisticRegression(50, 10), parts, test, config, seed=0)
start = mark("construct", start)
simulator.run()
mark("run", start)
print(json.dumps(rows))
"""


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return {**os.environ, "PYTHONPATH": src}


def _crowd_row(devices: int) -> dict:
    rows = json.loads(subprocess.run(
        [sys.executable, "-c", PROBE.format(devices=devices)],
        env=_child_env(), capture_output=True, text=True, check=True, timeout=600,
    ).stdout)
    for step in ("construct", "run"):
        grown_mb = rows[step]["rss_mb"] - rows["partition"]["rss_mb"]
        rows[step]["bytes_per_device"] = grown_mb * 1024 * 1024 / devices
    return rows


def test_crowd_memory():
    crowds = {f"M={devices}": _crowd_row(devices) for devices in CROWD_SIZES}
    header = f"{'sim_delayed-shaped crowd':<26s}" + "".join(
        f"{name + ' s':>12s} {'peak MB':>8s} {'rss MB':>7s}" for name in crowds)
    lines = [header]
    for step in STEPS:
        lines.append(f"{'after ' + step:<26s}" + "".join(
            f"{rows[step]['seconds']:12.3f} {rows[step]['peak_rss_mb']:8.1f} "
            f"{rows[step]['rss_mb']:7.1f}" for rows in crowds.values()))
    for step in ("construct", "run"):
        lines.append(f"{'bytes/device after ' + step:<26s}" + "".join(
            f"{rows[step]['bytes_per_device']:12.0f}{'':17s}" for rows in crowds.values()))
    publish_table("crowd_memory", "\n".join(lines), crowds)
