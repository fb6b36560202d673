"""Adversarial demonstrations: why local sanitization is necessary.

Section III-C motivates Crowd-ML's local mechanism with an adversary who
"can potentially access all communication between devices and the server".
This module implements that adversary's best simple move against the
protocol — **gradient inversion** — and quantifies how the Laplace
mechanism defeats it.

For multiclass logistic regression with a *single-sample* (b = 1) update,
the data gradient is the rank-one matrix

    g = x · M,   M_k = P(y = k | x) − I[y = k],

so an eavesdropper can read the raw feature vector straight off any row of
an unsanitized gradient: the row for class ``y`` is ``x·(P_y − 1)`` and all
other rows are positive multiples of ``x``.  The true label is identified
as the single row whose sign is flipped (the only ``M_k < 0``).

:func:`invert_logistic_gradient` implements this; the tests and the
``examples``/``benchmarks`` use it to show near-perfect reconstruction at
ε = ∞ and failure under the calibrated Laplace noise of Eq. (10) — an
empirical reading of the ε-DP guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.logistic import MulticlassLogisticRegression
from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class InversionResult:
    """Adversary's reconstruction from one observed gradient."""

    recovered_features: np.ndarray
    recovered_label: int
    #: |cosine| similarity between the true and recovered feature vector
    #: (filled by :func:`evaluate_inversion`; NaN until compared).
    cosine_similarity: float = float("nan")


def invert_logistic_gradient(
    gradient: np.ndarray, num_features: int, num_classes: int
) -> InversionResult:
    """Reconstruct (x, y) from a (possibly noisy) b=1 logistic gradient.

    The attack:

    1. reshape the flat gradient into the (C, D) matrix ``g``;
    2. the true label's row is the one anti-correlated with the remaining
       rows' common direction — equivalently, with rank-one structure,
       the row whose coefficient ``M_k`` is negative.  We estimate the
       common direction from the dominant right singular vector (robust
       to noise) and pick the row with the most negative projection;
    3. the feature estimate is the dominant singular direction itself,
       sign-fixed so that non-label rows project positively.

    Scale cannot be recovered (only x's direction), which is all the
    adversary needs for, e.g., re-identifying a location or spectrum.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != (num_features * num_classes,):
        raise ConfigurationError(
            f"gradient must have shape ({num_features * num_classes},), "
            f"got {gradient.shape}"
        )
    matrix = gradient.reshape(num_classes, num_features)
    # Dominant right singular vector ≈ x's direction.
    _, _, vt = np.linalg.svd(matrix, full_matrices=False)
    direction = vt[0]
    projections = matrix @ direction
    # Rows with positive M_k project with one sign; the label row flips.
    # Fix the global sign so that the majority of rows project positively.
    if np.sum(projections > 0) < num_classes / 2:
        direction = -direction
        projections = -projections
    label = int(np.argmin(projections))
    return InversionResult(recovered_features=direction, recovered_label=label)


def evaluate_inversion(
    true_features: np.ndarray, true_label: int, result: InversionResult
) -> InversionResult:
    """Score a reconstruction against the ground truth.

    Returns a copy of ``result`` with :attr:`InversionResult.cosine_similarity`
    filled in (absolute cosine — sign is unidentifiable).
    """
    true_features = np.asarray(true_features, dtype=np.float64)
    recovered = result.recovered_features
    denom = np.linalg.norm(true_features) * np.linalg.norm(recovered)
    cosine = 0.0 if denom == 0 else float(
        abs(np.dot(true_features, recovered)) / denom
    )
    return InversionResult(
        recovered_features=recovered,
        recovered_label=result.recovered_label,
        cosine_similarity=cosine,
    )


def inversion_attack_success(
    model: MulticlassLogisticRegression,
    parameters: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    sanitizer=None,
) -> tuple[float, float]:
    """Run the attack over a batch of single-sample releases.

    For each sample, computes the b=1 gradient the device would transmit,
    optionally sanitizes it with ``sanitizer`` (a mechanism with a
    ``release`` method, e.g. the Eq. 10 Laplace mechanism), inverts it,
    and scores the reconstruction.

    Returns
    -------
    (mean cosine similarity, label recovery rate)
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cosines, label_hits = [], []
    for i in range(features.shape[0]):
        gradient = model.gradient(
            parameters, features[i : i + 1], labels[i : i + 1]
        )
        if sanitizer is not None:
            gradient = sanitizer.release(gradient)
        if model.l2_regularization:
            # w is public (the adversary saw the check-out), so the λw term
            # is trivially subtracted before inversion.
            gradient = gradient - model.l2_regularization * np.asarray(
                parameters, dtype=np.float64
            )
        raw = invert_logistic_gradient(
            gradient, model.num_features, model.num_classes
        )
        scored = evaluate_inversion(features[i], int(labels[i]), raw)
        cosines.append(scored.cosine_similarity)
        label_hits.append(scored.recovered_label == int(labels[i]))
    return float(np.mean(cosines)), float(np.mean(label_hits))
