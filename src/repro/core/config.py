"""Configuration objects for the device and server runtimes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.privacy.budget import PrivacyBudget
from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class DeviceConfig:
    """Inputs of Algorithm 1 (device side).

    Attributes
    ----------
    batch_size:
        Minibatch size b: the device checks out once this many samples are
        buffered.
    buffer_capacity:
        Max buffer size B; collection pauses at this level to prevent
        resource outage (Algorithm 1, Routine 1).
    budget:
        Per-sample privacy levels (ε_g, ε_e, ε_yk).
    holdout_fraction:
        Remark 2: probability a sample is set aside as held-out test data —
        its error is counted but its gradient never enters the average.
    """

    batch_size: int
    buffer_capacity: int
    budget: PrivacyBudget
    holdout_fraction: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.buffer_capacity < self.batch_size:
            raise ConfigurationError(
                f"buffer_capacity ({self.buffer_capacity}) must be >= "
                f"batch_size ({self.batch_size})"
            )
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ConfigurationError(
                f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}"
            )

    @classmethod
    def default(
        cls,
        batch_size: int,
        num_classes: int,
        epsilon: float = math.inf,
        buffer_factor: int = 10,
    ) -> "DeviceConfig":
        """Convenience constructor: budget from a total ε, B = factor·b."""
        from repro.privacy.budget import split_budget

        return cls(
            batch_size=batch_size,
            buffer_capacity=batch_size * max(buffer_factor, 1),
            budget=split_budget(epsilon, num_classes),
        )


@dataclass(frozen=True)
class ServerConfig:
    """Inputs of Algorithm 2 (server side).

    Attributes
    ----------
    max_iterations:
        T_max — hard cap on the number of applied updates.
    target_error:
        ρ — stop when the DP-monitored global error estimate falls below it
        (``None`` disables the error-based stop).
    min_samples_for_error_stop:
        Do not trust the error estimate before this many samples have been
        counted (the DP counts are noisy early on).
    """

    max_iterations: int
    target_error: Optional[float] = None
    min_samples_for_error_stop: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.target_error is not None and not (0.0 <= self.target_error <= 1.0):
            raise ConfigurationError(
                f"target_error must be in [0, 1], got {self.target_error}"
            )
        if self.min_samples_for_error_stop < 0:
            raise ConfigurationError("min_samples_for_error_stop must be >= 0")
