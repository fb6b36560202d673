"""Multiclass logistic regression — Table I of the paper.

    Prediction:  argmax_k  w_k' x
    Risk:        (1/N) Σ_i [ −w_{y_i}' x_i + log Σ_l exp(w_l' x_i) ]
                 + (λ/2) Σ_k ‖w_k‖²
    Gradient:    ∇_{w_k} R = (1/N) Σ_i x_i [ −I[y_i = k] + P(y = k | x_i) ]
                 + λ w_k

Parameters are stored flat as the row-major flattening of the ``(C, D)``
matrix ``[w_1; ...; w_C]``.  The averaged data gradient has L1 sensitivity
``4/b`` for ``‖x‖₁ ≤ 1`` (Appendix A), which is what
:meth:`MulticlassLogisticRegression.gradient_sensitivity` reports.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import Model
from repro.privacy.sensitivity import logistic_gradient_sensitivity
from repro.utils.numerics import log_sum_exp, one_hot, softmax

#: Reusable row-index buffer for the fused oracle's in-place one-hot
#: subtraction — grown on demand, sliced per call (batches are small and
#: the oracle runs once per check-in).
_ROW_INDICES = np.arange(64)


def _row_indices(count: int) -> np.ndarray:
    global _ROW_INDICES
    if count > _ROW_INDICES.shape[0]:
        _ROW_INDICES = np.arange(max(count, 2 * _ROW_INDICES.shape[0]))
    return _ROW_INDICES[:count]


class MulticlassLogisticRegression(Model):
    """Softmax classifier with L2 regularization (Table I).

    Examples
    --------
    >>> import numpy as np
    >>> model = MulticlassLogisticRegression(num_features=2, num_classes=3)
    >>> w = model.init_parameters()
    >>> x = np.array([[0.5, 0.5]])
    >>> int(model.predict(w, x)[0]) in {0, 1, 2}
    True
    """

    @property
    def num_parameters(self) -> int:
        return self.num_classes * self.num_features

    def _weights(self, parameters: np.ndarray) -> np.ndarray:
        parameters = np.asarray(parameters, dtype=np.float64)
        if parameters.shape != (self.num_parameters,):
            raise ValueError(
                f"parameters must have shape ({self.num_parameters},), "
                f"got {parameters.shape}"
            )
        return parameters.reshape(self.num_classes, self.num_features)

    def scores(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Class scores ``x W'`` with shape ``(n, C)``."""
        features, _ = self.validate_batch(features)
        return features @ self._weights(parameters).T

    def posterior(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Class posteriors ``P(y = k | x)`` with shape ``(n, C)``."""
        return softmax(self.scores(parameters, features), axis=1)

    def predict(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """argmax_k w_k' x for each row of ``features``."""
        return np.argmax(self.scores(parameters, features), axis=1)

    def loss(self, parameters: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean negative log-likelihood plus (λ/2)‖w‖² (Table I risk)."""
        features, labels = self.validate_batch(features, labels)
        scores = features @ self._weights(parameters).T
        true_scores = scores[np.arange(scores.shape[0]), labels]
        nll = float(np.mean(log_sum_exp(scores, axis=1) - true_scores))
        reg = 0.5 * self.l2_regularization * float(np.dot(parameters, parameters))
        return nll + reg

    def gradient(
        self, parameters: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Averaged gradient of Table I, flat, including the λw term."""
        features, labels = self.validate_batch(features, labels)
        n = features.shape[0]
        probs = softmax(features @ self._weights(parameters).T, axis=1)
        residual = probs - one_hot(labels, self.num_classes)  # (n, C)
        grad = residual.T @ features / n  # (C, D)
        flat = grad.reshape(-1)
        if self.l2_regularization:
            flat = flat + self.l2_regularization * np.asarray(parameters, dtype=np.float64)
        return flat

    def errors_and_gradient(
        self, parameters: np.ndarray, features: np.ndarray, labels: np.ndarray,
        validate: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shared score matrix for both Routine 2 oracles.

        Bit-identical to the separate calls: ``prediction_errors`` is
        ``argmax`` over the same ``x W'`` scores, and ``gradient`` applies
        ``softmax`` to them — computing the matmul once changes no bits
        (the one-hot subtraction is performed in place on the softmax
        output: subtracting 1.0 from the label entries and 0.0 from the
        rest is the identical float operation; so is dividing the
        ``residualᵀ·X`` product by n in its own buffer).  Labels are
        trusted to lie in ``[0, C)`` — Routine 1 refuses any other before
        buffering — since a negative one would wrap in the scalar index.
        """
        features, labels = self.validate_batch(features, labels, validate)
        scores = features @ self._weights(parameters).T
        errors = scores.argmax(axis=1) != labels
        residual = softmax(scores, axis=1)
        count = features.shape[0]
        if count == 1:
            # b = 1 (Figs. 4–9's crowd arm): one scalar element, no fancy
            # index machinery.
            residual[0, labels[0]] -= 1.0
        else:
            residual[_row_indices(count), labels] -= 1.0
        grad = residual.T @ features
        grad /= count
        flat = grad.reshape(-1)
        if self.l2_regularization:
            flat = flat + self.l2_regularization * np.asarray(parameters, dtype=np.float64)
        return errors, flat

    def gradient_sensitivity(self, batch_size: int) -> float:
        """Appendix A bound: 4/b under ‖x‖₁ ≤ 1."""
        return logistic_gradient_sensitivity(batch_size)

    def per_sample_gradients(
        self, parameters: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Per-sample data gradients, shape ``(n, C·D)`` (no λ term).

        Exposed for the Eq. (13) noise-power ablation, which needs
        ``E[‖g‖²]`` over individual sample gradients.
        """
        features, labels = self.validate_batch(features, labels)
        probs = softmax(features @ self._weights(parameters).T, axis=1)
        residual = probs - one_hot(labels, self.num_classes)  # (n, C)
        # grads[i] = outer(residual[i], features[i]) flattened row-major.
        grads = residual[:, :, None] * features[:, None, :]  # (n, C, D)
        return grads.reshape(features.shape[0], -1)
