"""Server-side progress monitoring from DP counts (Eq. 14).

Server Routine 2 accumulates, per device m, the sample counts N_s^m, the
noisy misclassification counts N_e^m, and the noisy label counts N_y^{k,m}.
The global error-rate and label-prior estimates are

    Err_est    = Σ_m N_e^m / Σ_m N_s^m
    P_est(y=k) = Σ_m N_y^{k,m} / Σ_m N_s^m               (Eq. 14)

Because the discrete Laplace noise is zero-mean with finite variance, both
estimates converge almost surely to the truth as check-ins accumulate
(Appendix B, Remark 2); estimates are clipped into their valid ranges for
presentation but the raw sums are kept for the convergence analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.utils.validation import check_positive_int


@dataclass
class DeviceProgress:
    """Per-device accumulators of Algorithm 2."""

    samples: int = 0
    noisy_errors: int = 0

    def __post_init__(self):
        self.label_counts: np.ndarray | None = None


class ProgressMonitor:
    """Accumulates DP check-in statistics and exposes the Eq. 14 estimates.

    Examples
    --------
    >>> import numpy as np
    >>> monitor = ProgressMonitor(num_classes=2)
    >>> monitor.record(device_id=0, num_samples=10, noisy_error_count=3,
    ...                noisy_label_counts=np.array([6, 4]))
    >>> monitor.error_estimate()
    0.3
    """

    def __init__(self, num_classes: int):
        self._num_classes = check_positive_int(num_classes, "num_classes")
        self._devices: Dict[int, DeviceProgress] = {}
        self._total_samples = 0
        self._total_noisy_errors = 0
        self._total_label_counts = np.zeros(num_classes, dtype=np.int64)
        self._num_checkins = 0

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def total_samples(self) -> int:
        """Σ_m N_s^m — exact, since n_s is transmitted in clear."""
        return self._total_samples

    @property
    def num_checkins(self) -> int:
        return self._num_checkins

    @property
    def num_devices_seen(self) -> int:
        return len(self._devices)

    def record(
        self,
        device_id: int,
        num_samples: int,
        noisy_error_count: int,
        noisy_label_counts: np.ndarray,
    ) -> None:
        """Fold one check-in's statistics into the per-device accumulators."""
        device_id = int(device_id)
        progress = self._devices.get(device_id)
        if progress is None:
            progress = self._devices[device_id] = DeviceProgress()
        if progress.label_counts is None:
            progress.label_counts = np.zeros(self._num_classes, dtype=np.int64)
        counts = noisy_label_counts
        # A CheckinMessage already holds an int64 array (the per-check-in
        # case); only other inputs need coercing.
        if type(counts) is not np.ndarray or counts.dtype != np.int64:
            counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self._num_classes,):
            raise ValueError(
                f"label counts must have shape ({self._num_classes},), got {counts.shape}"
            )
        progress.samples += int(num_samples)
        progress.noisy_errors += int(noisy_error_count)
        progress.label_counts += counts
        self._total_samples += int(num_samples)
        self._total_noisy_errors += int(noisy_error_count)
        self._total_label_counts += counts
        self._num_checkins += 1

    def error_estimate(self) -> float:
        """Global DP error-rate estimate, clipped to [0, 1].

        Returns 1.0 before any samples arrive (pessimistic default so the
        ρ-based stop can never fire spuriously).
        """
        if self._total_samples == 0:
            return 1.0
        raw = self._total_noisy_errors / self._total_samples
        return float(np.clip(raw, 0.0, 1.0))

    def raw_error_estimate(self) -> float:
        """Unclipped estimate (may exit [0, 1] due to noise)."""
        if self._total_samples == 0:
            return 1.0
        return self._total_noisy_errors / self._total_samples

    def prior_estimate(self) -> np.ndarray:
        """DP label-prior estimate P_est(y), clipped and renormalized."""
        if self._total_samples == 0:
            return np.full(self._num_classes, 1.0 / self._num_classes)
        raw = np.maximum(self._total_label_counts / self._total_samples, 0.0)
        total = raw.sum()
        if total == 0.0:
            return np.full(self._num_classes, 1.0 / self._num_classes)
        return raw / total

    def device_error_estimate(self, device_id: int) -> float:
        """Per-device DP error estimate (for the Web-portal statistics)."""
        progress = self._devices.get(int(device_id))
        if progress is None or progress.samples == 0:
            return 1.0
        return float(np.clip(progress.noisy_errors / progress.samples, 0.0, 1.0))

    def device_sample_count(self, device_id: int) -> int:
        progress = self._devices.get(int(device_id))
        return progress.samples if progress is not None else 0

    def state_dict(self) -> Dict[str, Any]:
        """Serializable accumulator state (all integers — exact)."""
        return {
            "num_classes": self._num_classes,
            "total_samples": self._total_samples,
            "total_noisy_errors": self._total_noisy_errors,
            "total_label_counts": [int(c) for c in self._total_label_counts],
            "num_checkins": self._num_checkins,
            "devices": {
                str(device_id): {
                    "samples": progress.samples,
                    "noisy_errors": progress.noisy_errors,
                    "label_counts": (
                        None if progress.label_counts is None
                        else [int(c) for c in progress.label_counts]
                    ),
                }
                for device_id, progress in sorted(self._devices.items())
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ProgressMonitor":
        """Inverse of :meth:`state_dict`."""
        monitor = cls(int(state["num_classes"]))
        monitor._total_samples = int(state["total_samples"])
        monitor._total_noisy_errors = int(state["total_noisy_errors"])
        monitor._total_label_counts = np.asarray(
            state["total_label_counts"], dtype=np.int64
        )
        monitor._num_checkins = int(state["num_checkins"])
        for device_id, entry in dict(state["devices"]).items():
            progress = DeviceProgress(
                samples=int(entry["samples"]),
                noisy_errors=int(entry["noisy_errors"]),
            )
            if entry["label_counts"] is not None:
                progress.label_counts = np.asarray(
                    entry["label_counts"], dtype=np.int64
                )
            monitor._devices[int(device_id)] = progress
        return monitor
