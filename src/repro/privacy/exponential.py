"""Exponential mechanism (McSherry & Talwar) and DP label perturbation.

The centralized baseline of Appendix C perturbs each label by sampling a
noisy label ``ŷ`` given the true label ``y`` from

    P(ŷ | y) ∝ exp(ε_y · d(y, ŷ) / 2),   d(y, ŷ) = I[y = ŷ]      (Eq. 16)

i.e. the true label keeps probability mass ``e^{ε/2}`` relative to each of
the ``C - 1`` other labels.  Since the score has sensitivity 1, this is
ε_y-differentially private (Theorem 3).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.privacy.mechanism import Mechanism
from repro.utils.numerics import softmax
from repro.utils.validation import check_positive, check_positive_int


class ExponentialMechanism(Mechanism):
    """Generic exponential mechanism over a finite candidate set.

    Parameters
    ----------
    epsilon:
        Privacy level ε.
    score_sensitivity:
        Global sensitivity of the score function (1 for indicator scores).

    The :meth:`release` method takes a vector of scores (one per candidate)
    and returns the index of the sampled candidate.
    """

    def __init__(
        self,
        epsilon: float,
        score_sensitivity: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(epsilon, rng)
        self._score_sensitivity = check_positive(score_sensitivity, "score_sensitivity")

    @property
    def score_sensitivity(self) -> float:
        """Global sensitivity of the score function."""
        return self._score_sensitivity

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Return the sampling distribution ``P(i) ∝ exp(ε·sᵢ / 2Δ)``."""
        scores = np.asarray(scores, dtype=np.float64)
        if self.is_identity:
            # ε = ∞ degenerates to argmax (ties split uniformly).
            best = scores == scores.max()
            return best / best.sum()
        logits = self._epsilon * scores / (2.0 * self._score_sensitivity)
        return softmax(logits)

    def release(self, scores: np.ndarray) -> int:
        """Sample a candidate index with probability ∝ exp(ε·score/2Δ)."""
        probs = self.probabilities(scores)
        return int(self.rng.choice(probs.shape[0], p=probs))


def label_flip_distribution(epsilon: float, num_classes: int) -> np.ndarray:
    """Per-label distribution ``P(ŷ | y)`` of Eq. (16) as a length-C vector.

    Entry 0 is the probability of keeping the true label; the remaining
    ``C - 1`` mass is split evenly.  For ε = ∞ the true label is kept with
    probability 1.
    """
    num_classes = check_positive_int(num_classes, "num_classes")
    # Beyond exp(~700) the keep probability is 1 to machine precision;
    # avoid math.exp overflow for huge finite epsilons.
    if math.isinf(epsilon) or epsilon > 1400.0:
        out = np.zeros(num_classes)
        out[0] = 1.0
        return out
    check_positive(epsilon, "epsilon")
    keep_weight = math.exp(epsilon / 2.0)
    total = keep_weight + (num_classes - 1)
    out = np.full(num_classes, 1.0 / total)
    out[0] = keep_weight / total
    return out


def perturb_label(
    label: int,
    num_classes: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Sample a noisy label via the exponential mechanism of Eq. (16).

    >>> import numpy as np
    >>> perturb_label(3, 10, math.inf, np.random.default_rng(0))
    3
    """
    dist = label_flip_distribution(epsilon, num_classes)
    keep_prob = dist[0]
    if rng.random() < keep_prob:
        return int(label)
    # Uniform over the other C-1 labels.
    offset = int(rng.integers(1, num_classes))
    return int((label + offset) % num_classes)


def perturb_labels(
    labels: np.ndarray,
    num_classes: int,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized :func:`perturb_label` over an array of labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if math.isinf(epsilon):
        return labels.copy()
    dist = label_flip_distribution(epsilon, num_classes)
    keep = rng.random(labels.shape) < dist[0]
    offsets = rng.integers(1, num_classes, size=labels.shape)
    flipped = (labels + offsets) % num_classes
    return np.where(keep, labels, flipped).astype(np.int64)
