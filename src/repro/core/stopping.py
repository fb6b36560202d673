"""Stopping criteria of Algorithm 2.

The procedure ends when the iteration count reaches T_max or the
DP-monitored global error falls to the desired level ρ:

    t ≥ T_max   or   Σ_m N_e^m / Σ_m N_s^m ≤ ρ
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the sharded front end reads stop states without NumPy
    from repro.core.config import ServerConfig
    from repro.core.monitor import ProgressMonitor


class StopReason(Enum):
    """Why (or whether) the server has stopped."""

    RUNNING = "running"
    MAX_ITERATIONS = "max_iterations"
    TARGET_ERROR = "target_error"


@dataclass(frozen=True)
class StopDecision:
    """Outcome of one stopping-criteria evaluation."""

    stopped: bool
    reason: StopReason

    @classmethod
    def running(cls) -> "StopDecision":
        return _RUNNING


#: Shared immutable "still running" decision — stopping is evaluated on
#: every protocol message, so the common outcome is allocation-free.
_RUNNING = StopDecision(False, StopReason.RUNNING)


def evaluate_stopping(
    config: ServerConfig, iteration: int, monitor: ProgressMonitor
) -> StopDecision:
    """Evaluate Algorithm 2's stopping criteria.

    The ρ-based stop additionally requires a minimum number of counted
    samples so that early DP-noise fluctuations cannot end the task.

    >>> from repro.core.config import ServerConfig
    >>> from repro.core.monitor import ProgressMonitor
    >>> cfg = ServerConfig(max_iterations=10)
    >>> evaluate_stopping(cfg, 10, ProgressMonitor(2)).reason.value
    'max_iterations'
    """
    if iteration >= config.max_iterations:
        return StopDecision(True, StopReason.MAX_ITERATIONS)
    if (
        config.target_error is not None
        and monitor.total_samples >= config.min_samples_for_error_stop
        and monitor.error_estimate() <= config.target_error
    ):
        return StopDecision(True, StopReason.TARGET_ERROR)
    return StopDecision.running()
