"""Class-structured synthetic feature generator.

This is the offline stand-in for the paper's image datasets (see DESIGN.md
§3).  The generator produces what the paper's preprocessing produces:
PCA-compressed, L1-normalized feature vectors with class structure.  Each
class owns several Gaussian "style" subclusters (handwriting styles for
MNIST, object poses for CIFAR); a sample draws a subcluster, adds isotropic
within-cluster scatter, and is L1-normalized, guaranteeing ``‖x‖₁ ≤ 1``.

The single knob that matters for the figures is ``class_separation`` — the
ratio of between-class distance to within-class scatter — which controls
the achievable (Bayes-like) error floor of a linear classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.numerics import _l1_normalize_in_place
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_positive,
    check_positive_int,
)


#: Rows generated per step of :meth:`ClassClusterGenerator.sample`: its
#: temporaries (a block of prototypes, its absolute values) stay a small
#: fraction of the features it returns.  Not much smaller: glibc raises its
#: mmap threshold only to the largest block a process frees, and a process
#: that then allocates ~1 MB per request would page-fault on every one.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ClusterSpec:
    """Geometry of the synthetic class clusters.

    Attributes
    ----------
    num_classes:
        Number of classes C.
    num_features:
        Feature dimension D (post-"PCA").
    subclusters_per_class:
        Style prototypes per class.
    class_separation:
        Distance scale of class means relative to unit within-class scatter.
        Larger = more separable = lower achievable error.
    subcluster_spread:
        Distance of subcluster prototypes from their class mean.
    """

    num_classes: int
    num_features: int
    subclusters_per_class: int = 3
    class_separation: float = 3.0
    subcluster_spread: float = 0.8

    def __post_init__(self):
        check_positive_int(self.num_classes, "num_classes")
        check_positive_int(self.num_features, "num_features")
        check_positive_int(self.subclusters_per_class, "subclusters_per_class")
        check_positive(self.class_separation, "class_separation")
        check_positive(self.subcluster_spread, "subcluster_spread")


class ClassClusterGenerator:
    """Samples labelled feature vectors from a fixed cluster geometry.

    The geometry (class means and subcluster prototypes) is drawn once from
    ``structure_seed`` so that train and test sets — and all trials of an
    experiment — share the same underlying "world", while the per-sample
    randomness varies per call.

    Examples
    --------
    >>> spec = ClusterSpec(num_classes=3, num_features=8)
    >>> gen = ClassClusterGenerator(spec, structure_seed=0)
    >>> ds = gen.sample(100, rng=np.random.default_rng(1))
    >>> len(ds), ds.num_features
    (100, 8)
    >>> ds.max_l1_norm <= 1.0 + 1e-9
    True
    """

    def __init__(self, spec: ClusterSpec, structure_seed: int = 0):
        self._spec = spec
        structure_rng = np.random.default_rng(structure_seed)
        d, c, k = spec.num_features, spec.num_classes, spec.subclusters_per_class
        # Class means: random directions scaled by the separation knob.
        raw = structure_rng.normal(size=(c, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        self._class_means = raw * spec.class_separation
        # Subcluster prototypes sit at a fixed radius (= spread) around
        # their class mean; normalizing the offset keeps the geometry
        # dimension-independent, so class_separation alone controls the
        # achievable error of a linear classifier.
        offsets = structure_rng.normal(size=(c, k, d))
        offsets /= np.linalg.norm(offsets, axis=2, keepdims=True)
        offsets *= spec.subcluster_spread * spec.class_separation
        self._prototypes = self._class_means[:, None, :] + offsets

    @property
    def spec(self) -> ClusterSpec:
        return self._spec

    @property
    def class_means(self) -> np.ndarray:
        """``(C, D)`` class mean matrix (copy)."""
        return self._class_means.copy()

    def sample(
        self,
        num_samples: int,
        rng: np.random.Generator,
        *,
        class_distribution: np.ndarray | None = None,
    ) -> Dataset:
        """Draw ``num_samples`` i.i.d. labelled samples.

        ``class_distribution`` (length C, summing to 1) overrides the
        uniform class prior — used to emulate non-uniform label priors on
        individual devices.
        """
        num_samples = check_positive_int(num_samples, "num_samples")
        rng = as_generator(rng)
        spec = self._spec
        if class_distribution is None:
            labels = rng.integers(0, spec.num_classes, size=num_samples)
        else:
            probs = np.asarray(class_distribution, dtype=np.float64)
            if probs.shape != (spec.num_classes,) or not np.isclose(probs.sum(), 1.0):
                raise ValueError("class_distribution must be a length-C probability vector")
            labels = rng.choice(spec.num_classes, size=num_samples, p=probs)
        styles = rng.integers(0, spec.subclusters_per_class, size=num_samples)
        # The features are l1_normalize(prototypes[labels, styles] + noise),
        # built in the noise buffer one row block at a time so that no
        # temporary is larger than a block: IEEE addition commutes, so
        # noise + prototype has the sum's bits, and each row's norm and
        # division do not depend on the rows around it.
        features = rng.normal(size=(num_samples, spec.num_features))
        for start in range(0, num_samples, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = features[start:stop]
            block += self._prototypes[labels[start:stop], styles[start:stop]]
            _l1_normalize_in_place(block)
        return Dataset(features, labels, spec.num_classes)

    def sample_train_test(
        self,
        num_train: int,
        num_test: int,
        rng: np.random.Generator,
    ) -> tuple[Dataset, Dataset]:
        """Draw disjoint train and test sets from the same geometry."""
        rng = as_generator(rng)
        return self.sample(num_train, rng), self.sample(num_test, rng)
