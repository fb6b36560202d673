"""Run traces: everything one simulated Crowd-ML run records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.curves import ErrorCurve


@dataclass
class CommunicationStats:
    """Crowd-wide traffic totals (Section IV-B2 accounting)."""

    checkout_requests: int = 0
    checkouts_delivered: int = 0
    checkins_delivered: int = 0
    messages_dropped: int = 0
    uplink_floats: int = 0
    downlink_floats: int = 0

    @property
    def total_floats(self) -> int:
        """Total float64 payload volume in both directions."""
        return self.uplink_floats + self.downlink_floats


@dataclass
class RunTrace:
    """Output of one simulated run.

    Attributes
    ----------
    curve:
        Test error vs iteration (= samples consumed crowd-wide).
    online_errors:
        Per-sample online prediction-error indicators in consumption order
        (drives Fig. 3's time-averaged error).
    final_parameters:
        The server's parameters when the run ended.
    total_samples_consumed:
        Σ n_s over applied check-ins.
    server_iterations:
        Number of SGD updates applied (= check-ins applied).
    communication:
        Crowd-wide traffic counters.
    per_sample_epsilon:
        Max over devices of the accountant's ``per_sample_epsilon``: one
        check-in's ε under basic composition, assuming each sample is
        released once.  With ``num_passes > 1`` every sample is released
        once per pass, so its true spend is this figure times the passes.
    stop_reason:
        Why the run ended ("data_exhausted", "max_iterations",
        "target_error").
    staleness:
        Per-applied-check-in gradient staleness: the number of server
        updates that happened between the check-out that produced the
        gradient and its application.  Section IV-B3 predicts a mean of
        roughly (τ_co + τ_ci)·M·F_s / b.
    """

    curve: ErrorCurve
    online_errors: np.ndarray
    final_parameters: np.ndarray
    total_samples_consumed: int
    server_iterations: int
    communication: CommunicationStats
    per_sample_epsilon: float
    stop_reason: str
    staleness: np.ndarray = None

    @property
    def mean_staleness(self) -> float:
        """Average number of interleaved updates per applied gradient."""
        if self.staleness is None or self.staleness.size == 0:
            return 0.0
        return float(np.mean(self.staleness))

    @property
    def max_staleness(self) -> int:
        """Worst-case staleness observed."""
        if self.staleness is None or self.staleness.size == 0:
            return 0
        return int(np.max(self.staleness))

    @property
    def final_error(self) -> float:
        """Test error at the last snapshot."""
        return self.curve.final_error

    def time_averaged_error(self) -> np.ndarray:
        """Fig. 3's running mean of online prediction errors."""
        from repro.evaluation.metrics import time_averaged_error

        return time_averaged_error(self.online_errors)
