"""Gaussian mechanism — the (ε, δ) variant of footnote 1.

The paper notes that (ε, δ)-differential privacy can be achieved by adding
Gaussian instead of Laplace noise.  We implement the classical analytic
calibration for L2 sensitivity ``S₂``:

    σ = S₂ · sqrt(2 ln(1.25/δ)) / ε,     0 < ε ≤ 1, 0 < δ < 1

(Dwork & Roth, Theorem A.1).  For the averaged logistic gradient the L2
sensitivity is bounded by the L1 sensitivity, so ``S₂ ≤ 4/b`` is a valid
(if conservative) calibration.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.privacy.mechanism import Mechanism
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_fraction, check_positive


def gaussian_sigma(sensitivity_l2: float, epsilon: float, delta: float) -> float:
    """Noise standard deviation for the analytic Gaussian mechanism.

    Returns 0 for ε = ∞.

    >>> round(gaussian_sigma(1.0, 1.0, 1e-5), 4)
    4.8448
    """
    if math.isinf(epsilon):
        return 0.0
    sensitivity_l2 = check_positive(sensitivity_l2, "sensitivity_l2")
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_fraction(delta, "delta", inclusive=False)
    if epsilon > 1.0:
        raise ConfigurationError(
            f"the classical Gaussian calibration requires epsilon <= 1, got {epsilon}"
        )
    return sensitivity_l2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


class GaussianMechanism(Mechanism):
    """(ε, δ)-DP release of real vectors via Gaussian noise.

    Examples
    --------
    >>> import numpy as np
    >>> mech = GaussianMechanism(epsilon=0.5, delta=1e-5, sensitivity_l2=1.0,
    ...                          rng=np.random.default_rng(0))
    >>> mech.release(np.zeros(4)).shape
    (4,)
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        sensitivity_l2: float,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(epsilon, rng)
        self._delta = check_fraction(delta, "delta", inclusive=False)
        self._sensitivity_l2 = check_positive(sensitivity_l2, "sensitivity_l2")
        self._sigma = gaussian_sigma(self._sensitivity_l2, self._epsilon, self._delta)

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def sensitivity_l2(self) -> float:
        """L2 global sensitivity the noise is calibrated to."""
        return self._sensitivity_l2

    @property
    def sigma(self) -> float:
        """Per-coordinate noise standard deviation (0 when ε = ∞)."""
        return self._sigma

    def noise_variance(self) -> float:
        """Per-coordinate noise variance σ²."""
        return self._sigma**2

    def expected_noise_power(self, dimension: int) -> float:
        """``E[‖z‖²] = D·σ²`` for a ``dimension``-long release."""
        return float(dimension) * self.noise_variance()

    def release(self, value: np.ndarray) -> np.ndarray:
        """Return ``value + z`` with ``z ~ N(0, σ²I)``."""
        value = np.asarray(value, dtype=np.float64)
        if self.is_identity:
            return value.copy()
        return value + self.rng.normal(0.0, self._sigma, value.shape)
