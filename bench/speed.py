"""A reference kernel that says how fast the box is running right now.

The sandbox this benchmark is accepted on is a 2-vCPU KVM guest whose
CPU speed wanders: the same 2000-round simulation, repeated back to back
for five minutes, read 242 to 679 ms, and the median of a 12 s window
moved 13 to 28 % (quartile distance over median) from window to window,
with no steal time reported and nothing else running.  Sampled every
50 ms the speed holds for seconds at a time and then flips between
levels up to 2.3x apart within a tenth of a second.  Wall-clock
throughput of a CPU-bound, single-threaded workload can therefore meet
no regression bound the contract allows (at most 25 %).  Interleaving a
fixed kernel of the benchmark's own with the work and reporting the
work's time *relative to the kernel's* brings the same windows to 4 to
7 %: both slow down together.  (What is left is the flips inside a
repetition, which samples at its two ends cannot see.)

The two ``sim_*`` workloads report their times this way, in seconds of a
box on which the kernel takes ``NOMINAL_S`` (a usual reading here, so
corrected and raw numbers agree when the box is quiet); their raw
readings stay in the run's details.  The serve workloads are not
corrected: at HEAD they wait on the response stall, not on the CPU, and
their load generator has no idle thread to sample with.

The kernel is a crowd of device-like objects (a weight matrix, a
generator, a list and a dict each: 4 MB in all) visited in turn for one
softmax-gradient step of small-array NumPy calls under a Python loop,
which is what the simulator's rounds are made of.  The working set
matters: a kernel that stays in the first-level cache slowed down more
than the simulator did (its corrected readings fell 12 % from the
fastest quarter of a five-minute series to the slowest); this one
tracks it within 2 %.  It calls nothing under ``src/``, so no change to
the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.010
_DEVICES = 1000
_VISITS = 400
_STRIDE = 7


class _Device:
    def __init__(self, index: int) -> None:
        self.rng = np.random.default_rng(index)
        self.weights = self.rng.normal(size=(50, 10))
        self.rows = self.rng.normal(size=(20, 50))
        self.buffer: list = []
        self.stats = {"visits": 0}


class SpeedGauge:
    def __init__(self) -> None:
        self._devices = [_Device(index) for index in range(_DEVICES)]
        self._position = 0

    def sample(self) -> float:
        """Run the kernel once; returns its seconds."""
        devices, position = self._devices, self._position
        start = time.perf_counter()
        for visit in range(_VISITS):
            device = devices[(position + visit * _STRIDE) % _DEVICES]
            row = device.rows[visit % 20:visit % 20 + 1]
            scores = row @ device.weights
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            gradient = (row.T @ weights).ravel() + device.rng.laplace(0.0, 0.1, size=500)
            device.weights -= 0.01 * gradient.reshape(50, 10)
            device.stats["visits"] += 1
            device.buffer.append(visit)
            device.buffer.clear()
        elapsed = time.perf_counter() - start
        self._position = position + _VISITS * _STRIDE
        return elapsed


def speed_factor(reference_before: float, reference_after: float) -> float:
    """What to multiply the seconds of work bracketed by two kernel samples
    by, to read them as seconds on a box where the kernel takes
    ``NOMINAL_S``."""
    return NOMINAL_S / ((reference_before + reference_after) / 2.0)
