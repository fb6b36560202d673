"""Multi-trial experiment runner (Section V-C: "averaged ... from 10 trials").

Each trial re-randomizes the sample-to-device assignment, device order,
perturbation noise, and delays (exactly the paper's list) by deriving every
stream from the trial seed.  Curves are averaged on a common grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.evaluation.curves import ErrorCurve, average_curves
from repro.models.base import Model
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CrowdSimulator
from repro.simulation.trace import RunTrace
from repro.utils.rng import RngFactory

PartitionFn = Callable[[Dataset, int, np.random.Generator], List[Dataset]]


@dataclass(frozen=True)
class TrialSetReport:
    """Aggregated output of several independent trials."""

    mean_curve: ErrorCurve
    traces: tuple[RunTrace, ...]

    @property
    def num_trials(self) -> int:
        return len(self.traces)

    @property
    def final_error(self) -> float:
        return self.mean_curve.final_error

    def tail_error(self, fraction: float = 0.2) -> float:
        """Mean tail error of the averaged curve."""
        return self.mean_curve.tail_error(fraction)


def run_crowd_trial(
    model: Model, train: Dataset, test: Dataset, config: SimulationConfig,
    base_seed: int, trial: int, partition: PartitionFn = iid_partition,
) -> RunTrace:
    """Run trial number ``trial`` of the series seeded by ``base_seed``.

    The one place the trial-seeding convention lives (the ``"assignment"``
    and ``"simulator"`` streams of ``RngFactory(base_seed)``), so trial
    ``k`` is the same run in a loop here or as a lone session task.
    """
    factory = RngFactory(base_seed)
    device_datasets = partition(
        train, config.num_devices, factory.generator("assignment", trial)
    )
    return CrowdSimulator(
        model, device_datasets, test, config,
        seed=factory.seed("simulator", trial),
    ).run()


def run_crowd_trials(
    model_factory: Callable[[], Model],
    train: Dataset,
    test: Dataset,
    config: SimulationConfig,
    num_trials: int = 10,
    base_seed: int = 0,
    partition: Optional[PartitionFn] = None,
) -> TrialSetReport:
    """Run ``num_trials`` independent Crowd-ML simulations and average.

    ``model_factory`` builds a fresh model per trial (models are stateless,
    but a factory keeps trials fully isolated).  ``partition`` defaults to
    the paper's i.i.d. random assignment.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    partition = partition if partition is not None else iid_partition
    traces = tuple(
        run_crowd_trial(
            model_factory(), train, test, config, base_seed, trial, partition
        )
        for trial in range(num_trials)
    )
    mean_curve = average_curves([trace.curve for trace in traces])
    return TrialSetReport(mean_curve=mean_curve, traces=traces)
