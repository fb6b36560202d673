"""Hyperparameter selection (Section V-C's protocol).

"Hyperparameters λ (Table I) and c (Eq. 5) are selected from the averaged
test error from 10 trials."  :func:`select_hyperparameters` runs a grid of
(λ, c) candidates through the multi-trial crowd runner and returns the pair
minimizing the averaged tail error, together with the full score table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.data.dataset import Dataset
from repro.models.base import Model
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_crowd_trials
from repro.utils.exceptions import ConfigurationError

ModelBuilder = Callable[[float], Model]  # lambda l2: Model(...)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one grid search."""

    best_l2: float
    best_learning_rate: float
    best_error: float
    scores: Dict[Tuple[float, float], float]

    def format_table(self) -> str:
        """Score grid as text (rows λ, columns c)."""
        lines = [f"{'lambda':>10} {'c':>10} {'tail error':>11}"]
        for (l2, c), err in sorted(self.scores.items()):
            marker = "  <-- best" if (l2, c) == (self.best_l2,
                                                 self.best_learning_rate) else ""
            lines.append(f"{l2:>10g} {c:>10g} {err:>11.3f}{marker}")
        return "\n".join(lines)


def select_hyperparameters(
    model_builder: ModelBuilder,
    train: Dataset,
    validation: Dataset,
    base_config: SimulationConfig,
    l2_grid: Sequence[float],
    learning_rate_grid: Sequence[float],
    num_trials: int = 3,
    base_seed: int = 0,
) -> SelectionResult:
    """Grid-search (λ, c) by averaged validation error.

    ``model_builder`` maps an λ to a fresh model; every other simulation
    knob comes from ``base_config`` (its own c is overridden; λ lives in
    the model).
    The winner minimizes the trial-averaged tail error on ``validation``.

    >>> # doctest-level smoke is exercised in the unit tests
    """
    if not l2_grid or not learning_rate_grid:
        raise ConfigurationError("both grids must be non-empty")
    scores: Dict[Tuple[float, float], float] = {}
    import dataclasses

    for l2 in l2_grid:
        for c in learning_rate_grid:
            config = dataclasses.replace(
                base_config, learning_rate_constant=float(c)
            )
            report = run_crowd_trials(
                lambda l2=l2: model_builder(float(l2)),
                train,
                validation,
                config,
                num_trials=num_trials,
                base_seed=base_seed,
            )
            scores[(float(l2), float(c))] = report.tail_error()
    best = min(scores, key=scores.get)
    return SelectionResult(
        best_l2=best[0],
        best_learning_rate=best[1],
        best_error=scores[best],
        scores=scores,
    )
