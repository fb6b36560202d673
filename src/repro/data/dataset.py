"""In-memory labelled dataset container used across the library."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_labels, check_matrix


@dataclass(frozen=True)
class Dataset:
    """A classification dataset: ``(n, D)`` features, ``(n,)`` int labels.

    Feature rows are expected (and enforced by the library's preprocessing)
    to satisfy ``‖x‖₁ ≤ 1``, the assumption behind every sensitivity bound.

    Examples
    --------
    >>> import numpy as np
    >>> ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), num_classes=2)
    >>> len(ds)
    4
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = check_matrix(self.features, "features")
        labels = check_labels(self.labels, "labels", self.num_classes)
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                f"features rows ({features.shape[0]}) != labels length ({labels.shape[0]})"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        """Feature dimension D."""
        return self.features.shape[1]

    @property
    def max_l1_norm(self) -> float:
        """Largest row L1 norm (should be ≤ 1 after preprocessing)."""
        if len(self) == 0:
            return 0.0
        return float(np.max(np.sum(np.abs(self.features), axis=1)))

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return the dataset restricted to ``indices`` (integer indexing
        copies the rows)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Return a row-permuted copy."""
        order = rng.permutation(len(self))
        return self.subset(order)

    def samples(self) -> Iterator[Tuple[np.ndarray, int]]:
        """Iterate ``(x, y)`` pairs in order."""
        for i in range(len(self)):
            yield self.features[i], int(self.labels[i])


def train_test_split(
    dataset: Dataset,
    test_fraction: float,
    rng: np.random.Generator,
) -> Tuple[Dataset, Dataset]:
    """Random split into train and test subsets.

    >>> import numpy as np
    >>> ds = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=int), num_classes=2)
    >>> train, test = train_test_split(ds, 0.3, np.random.default_rng(0))
    >>> len(train), len(test)
    (7, 3)
    """
    if not (0.0 < test_fraction < 1.0):
        raise ConfigurationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = rng.permutation(len(dataset))
    num_test = int(round(len(dataset) * test_fraction))
    num_test = min(max(num_test, 1), len(dataset) - 1)
    return dataset.subset(order[num_test:]), dataset.subset(order[:num_test])


def concatenate(datasets: list[Dataset]) -> Dataset:
    """Stack several datasets (same D and C) into one."""
    if not datasets:
        raise ConfigurationError("cannot concatenate an empty list of datasets")
    num_classes = datasets[0].num_classes
    num_features = datasets[0].num_features
    for ds in datasets[1:]:
        if ds.num_classes != num_classes or ds.num_features != num_features:
            raise ConfigurationError("datasets must agree on num_classes and num_features")
    return Dataset(
        np.concatenate([ds.features for ds in datasets], axis=0),
        np.concatenate([ds.labels for ds in datasets], axis=0),
        num_classes,
    )
