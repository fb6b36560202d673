"""Discrete Laplace mechanism for integer counts (Eqs. (11) and (12)).

The device reports its misclassification count ``n_e`` and per-class label
counts ``n_y^k`` perturbed with *discrete* Laplace noise

    P(z) ∝ exp(-ε |z| / 2),  z ∈ {0, ±1, ±2, ...}

which (Appendix B) is the exponential mechanism with score
``d = -|n̂ - n|``; the score has sensitivity 1, giving ε-DP by
McSherry-Talwar.  The noise has zero mean and variance
``2 e^{-ε/2} / (1 - e^{-ε/2})²`` (Inusah & Kozubowski, 2006), which the
server-side monitor uses for its confidence reasoning (Eq. 14 remark).

Sampling uses the difference-of-geometrics representation: if
``G₁, G₂ ~ Geometric(1 - p)`` (number of failures) with ``p = e^{-ε/2}``,
then ``G₁ - G₂`` has the discrete Laplace distribution above.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.privacy.mechanism import Mechanism
from repro.utils.validation import check_positive

IntOrArray = Union[int, np.ndarray]


def discrete_laplace_variance(epsilon: float, score_scale: float = 2.0) -> float:
    """Variance of discrete Laplace noise with ``P(z) ∝ exp(-ε|z|/score_scale)``.

    With ``p = exp(-ε/score_scale)`` the variance is ``2p/(1-p)²``.
    Returns 0 for ε = ∞.
    """
    if math.isinf(epsilon):
        return 0.0
    p = math.exp(-check_positive(epsilon, "epsilon") / score_scale)
    return 2.0 * p / (1.0 - p) ** 2


def geometric_success(epsilon: float, score_scale: float = 2.0) -> float:
    """Success probability ``1 - e^{-ε/score_scale}`` of the two geometrics.

    Returns 0 for ε = ∞: no noise, and nothing is drawn.
    """
    if math.isinf(epsilon):
        return 0.0
    return 1.0 - math.exp(-check_positive(epsilon, "epsilon") / score_scale)


def discrete_laplace_noise(success: float, rng: np.random.Generator, shape=None):
    """``G₁ - G₂`` with ``Gᵢ ~ Geometric(success)``: int64 of ``shape``
    (an int or a tuple), or one Python int when ``shape`` is None.

    The one sampling implementation: the mechanism below and the device
    sanitizer both draw through it.  One call draws both geometric
    vectors as the two rows of a ``(2, *shape)`` block: filled in C order,
    row 0 takes the stream positions a first ``rng.geometric(success,
    shape)`` call would and row 1 those of a second, so the result equals
    the two-call difference bit for bit.  A scalar is the ``(2,)`` block's
    two draws, subtracted as Python ints.  numpy's geometric counts trials
    (support 1, 2, ...); the two ``- 1`` shifts to the failures-count
    convention cancel in the difference.
    """
    if shape is None:
        first, second = rng.geometric(success, 2).tolist()
        return first - second
    draws = rng.geometric(success, (2, *shape) if isinstance(shape, tuple) else (2, shape))
    return draws[0] - draws[1]


def sample_discrete_laplace(
    epsilon: float,
    rng: np.random.Generator,
    size=None,
    score_scale: float = 2.0,
) -> IntOrArray:
    """Draw discrete Laplace noise ``P(z) ∝ exp(-ε|z|/score_scale)``."""
    success = geometric_success(epsilon, score_scale)
    if not success:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    return discrete_laplace_noise(success, rng, size)


class DiscreteLaplaceMechanism(Mechanism):
    """ε-DP release of integer counts via discrete Laplace noise.

    The released value may be negative with small probability; the paper
    keeps such values (they have limited effect on the server's running
    estimates, Appendix B Remark 2), and so do we by default.  Pass
    ``clip_negative=True`` to clamp at zero if an application needs
    non-negative counts (this only improves utility and cannot hurt DP,
    being post-processing).

    Examples
    --------
    >>> import numpy as np
    >>> mech = DiscreteLaplaceMechanism(epsilon=1.0,
    ...                                 rng=np.random.default_rng(0))
    >>> isinstance(mech.release(5), int)
    True
    """

    def __init__(
        self,
        epsilon: float,
        rng: Optional[np.random.Generator] = None,
        *,
        clip_negative: bool = False,
        score_scale: float = 2.0,
    ):
        super().__init__(epsilon, rng)
        self._clip_negative = bool(clip_negative)
        self._score_scale = check_positive(score_scale, "score_scale")
        self._success = geometric_success(self._epsilon, self._score_scale)

    @property
    def score_scale(self) -> float:
        """Denominator in the exponent, 2 for the paper's Eqs. (11)-(12)."""
        return self._score_scale

    @property
    def success_probability(self) -> float:
        """Geometric success probability of the draws (0 when ε = ∞)."""
        return self._success

    def noise_variance(self) -> float:
        """Variance of the added integer noise."""
        return discrete_laplace_variance(self._epsilon, self._score_scale)

    def release(self, value: IntOrArray) -> IntOrArray:
        """Return ``value + z`` with discrete Laplace ``z`` (elementwise).

        ε = ∞ adds no noise and draws nothing from the RNG; the release
        never aliases the caller's buffer.
        """
        if np.isscalar(value) or (isinstance(value, np.ndarray) and value.ndim == 0):
            noisy = int(value)
            if self._success:
                noisy += discrete_laplace_noise(self._success, self.rng)
            return max(noisy, 0) if self._clip_negative else noisy
        counts = np.asarray(value, dtype=np.int64)
        if self._success:
            noisy = counts + discrete_laplace_noise(self._success, self.rng, counts.shape)
        else:
            noisy = counts.copy() if counts is value else counts
        return np.maximum(noisy, 0) if self._clip_negative else noisy
