"""Evaluation metrics: test error, time-averaged online error (Fig. 3)."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.models.base import Model
from repro.utils.numerics import running_mean


def test_error(model: Model, parameters: np.ndarray, dataset: Dataset) -> float:
    """Misclassification rate of ``parameters`` on ``dataset``.

    >>> import numpy as np
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.data.dataset import Dataset
    >>> model = MulticlassLogisticRegression(num_features=1, num_classes=2)
    >>> ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
    >>> test_error(model, np.array([-1.0, 1.0]), ds)
    0.0
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return model.error_rate(parameters, dataset.features, dataset.labels)


def test_loss(model: Model, parameters: np.ndarray, dataset: Dataset) -> float:
    """Mean loss of ``parameters`` on ``dataset`` (includes the λ term)."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return model.loss(parameters, dataset.features, dataset.labels)


def time_averaged_error(per_sample_errors: np.ndarray) -> np.ndarray:
    """Fig. 3's ``Err(t) = (1/t) Σ_{i≤t} I[y_i ≠ y_i^pred]``.

    ``per_sample_errors`` is the boolean error indicator sequence in
    collection order; the output is the running error-rate curve.
    """
    errors = np.asarray(per_sample_errors, dtype=np.float64)
    return running_mean(errors)


class SnapshotEvaluator:
    """Memoized test-error oracle for snapshot grids.

    A run's error curve snapshots the same parameter vector repeatedly
    whenever one check-in crosses several grid points (common at large
    minibatch sizes), and at paper scale each evaluation is a full
    test-set forward pass.  This evaluator keys results on the exact
    parameter bytes, so repeated snapshots of unchanged parameters cost a
    dict lookup instead of a 10k × d matmul; the returned values are
    bit-identical to :func:`test_error`.

    Parameters
    ----------
    model, dataset:
        The evaluation oracle and the clean test set.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.data.dataset import Dataset
    >>> model = MulticlassLogisticRegression(num_features=1, num_classes=2)
    >>> ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
    >>> evaluator = SnapshotEvaluator(model, ds)
    >>> evaluator.error(np.array([-1.0, 1.0]))
    0.0
    >>> evaluator.hits, evaluator.misses
    (0, 1)
    """

    def __init__(self, model: Model, dataset: Dataset):
        if len(dataset) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        self._model = model
        self._features = dataset.features
        self._labels = dataset.labels
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def error(self, parameters: np.ndarray) -> float:
        """Misclassification rate of ``parameters``, memoized on its bits."""
        key = np.ascontiguousarray(parameters).tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = self._model.error_rate(parameters, self._features, self._labels)
        self._cache[key] = value
        return value


def snapshot_grid(max_iterations: int, num_points: int = 60) -> np.ndarray:
    """Iteration checkpoints at which curves record test error.

    Linear grid over ``[1, max_iterations]`` with ``num_points`` unique
    integer entries, always including the endpoint.

    >>> snapshot_grid(10, 5).tolist()
    [1, 3, 6, 8, 10]
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    grid = np.unique(
        np.round(np.linspace(1, max_iterations, num=min(num_points, max_iterations)))
    ).astype(np.int64)
    return grid
