"""Vector Laplace mechanism (Eqs. (9) and (10) of the paper).

A vector-valued function ``f`` with L1 global sensitivity ``S(f)`` is made
ε-differentially private by adding i.i.d. Laplace noise of scale
``S(f)/ε`` to each coordinate::

    P(z) ∝ exp(-ε ‖z‖₁ / S(f))            (Eq. 9)

For Crowd-ML's averaged logistic-regression gradient the sensitivity is
``4/b`` (Appendix A), so the per-coordinate scale is ``4/(b·ε_g)`` — this is
exactly Eq. (10): ``P(z) ∝ exp(-ε_g b |z| / 4)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.privacy.mechanism import Mechanism
from repro.utils.validation import check_positive


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """Per-coordinate Laplace scale ``S(f)/ε``.

    Returns 0 for ε = ∞ (no noise).

    >>> laplace_scale(4.0, 2.0)
    2.0
    """
    if math.isinf(epsilon):
        return 0.0
    return check_positive(sensitivity, "sensitivity") / check_positive(epsilon, "epsilon")


class LaplaceMechanism(Mechanism):
    """ε-DP release of real vectors via coordinate-wise Laplace noise.

    Parameters
    ----------
    epsilon:
        Privacy level ε (``math.inf`` for the non-private identity).
    sensitivity:
        L1 global sensitivity of the released function.
    rng:
        Noise source; defaults to a fresh non-deterministic generator.

    Examples
    --------
    >>> import numpy as np
    >>> mech = LaplaceMechanism(epsilon=1.0, sensitivity=4.0,
    ...                         rng=np.random.default_rng(0))
    >>> noisy = mech.release(np.zeros(3))
    >>> noisy.shape
    (3,)
    """

    def __init__(
        self,
        epsilon: float,
        sensitivity: float,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(epsilon, rng)
        self._sensitivity = check_positive(sensitivity, "sensitivity")
        self._scale = laplace_scale(self._sensitivity, self._epsilon)

    @property
    def sensitivity(self) -> float:
        """L1 global sensitivity the noise is calibrated to."""
        return self._sensitivity

    @property
    def scale(self) -> float:
        """Per-coordinate Laplace scale ``S(f)/ε`` (0 when ε = ∞)."""
        return self._scale

    def noise_variance(self) -> float:
        """Per-coordinate noise variance ``2·(S/ε)²``."""
        return 2.0 * self._scale**2

    def expected_noise_power(self, dimension: int) -> float:
        """``E[‖z‖²]`` for a ``dimension``-long release.

        For the gradient mechanism (S = 4/b) this is ``32·D/(b·ε)²`` — the
        Laplace term in Eq. (13).
        """
        return float(dimension) * self.noise_variance()

    def release(self, value: np.ndarray) -> np.ndarray:
        """Return ``value + z`` with ``z ~ Laplace(0, S/ε)`` coordinate-wise."""
        value = np.asarray(value, dtype=np.float64)
        if self.is_identity:
            return value.copy()
        return value + self.rng.laplace(0.0, self._scale, value.shape)
