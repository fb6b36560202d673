"""Numerically stable primitives shared across models and mechanisms."""

from __future__ import annotations

import numpy as np


def log_sum_exp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Compute ``log(sum(exp(scores)))`` along ``axis`` without overflow.

    Subtracts the per-slice maximum before exponentiating, the standard
    stabilization for softmax-family computations.
    """
    scores = np.asarray(scores, dtype=np.float64)
    peak = np.max(scores, axis=axis, keepdims=True)
    shifted = scores - peak
    out = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis)


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    >>> import numpy as np
    >>> p = softmax(np.array([0.0, 0.0]))
    >>> np.allclose(p, [0.5, 0.5])
    True
    """
    scores = np.asarray(scores, dtype=np.float64)
    # The ufunc reductions are the kernels np.max/np.sum and the ndarray
    # methods wrap — identical bits, less per-call overhead (this runs
    # once per device check-in).  The shift is the one fresh array; exp
    # and the normalisation run in place in it (the same element-wise
    # operations on the same operands, so the same bits).
    out = scores - np.maximum.reduce(scores, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return the ``(n, num_classes)`` one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def l1_normalize(features: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Scale rows of ``features`` to unit L1 norm.

    Rows with (near-)zero norm are left at zero rather than amplified, so the
    guarantee ``‖x‖₁ ≤ 1`` assumed by the sensitivity analysis always holds.
    """
    features = np.asarray(features, dtype=np.float64)
    norms = np.sum(np.abs(features), axis=axis, keepdims=True)
    safe = np.where(norms > eps, norms, 1.0)
    return features / safe


def running_mean(values: np.ndarray) -> np.ndarray:
    """Return the running (prefix) mean of a 1-D sequence.

    Used for the time-averaged error curves of Fig. 3:
    ``Err(t) = (1/t) * sum_{i<=t} err_i``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if values.size == 0:
        return values.copy()
    return np.cumsum(values) / np.arange(1, values.size + 1)
