"""CIFAR-like synthetic object-recognition dataset (DESIGN.md §3).

The paper pushes CIFAR-10 images through an ImageNet-trained CNN, takes the
4096-d last-hidden-layer activations, PCA-compresses them to 100 dims, and
L1-normalizes.  The resulting task is harder than MNIST: the centralized
batch error floor is ≈ 0.3 (Fig. 7).  This generator matches D = 100,
C = 10, ``‖x‖₁ ≤ 1``, with heavier class overlap (more style subclusters,
smaller separation) so a linear classifier plateaus near 0.3.  Like the
MNIST-like generator it emits post-PCA, L1-normalized features directly; a
loader for real CIFAR-10 brings its own CNN + PCA preprocessing.

Canonical sizes follow the paper: 50 000 train / 10 000 test.
"""

from __future__ import annotations

from repro.data.dataset import Dataset
from repro.data.synthetic import ClassClusterGenerator, ClusterSpec
from repro.utils.rng import RngFactory

#: Feature dimension after the paper's PCA step on CNN features.
CIFAR_DIM = 100
#: Number of object classes.
CIFAR_CLASSES = 10
#: Separation calibrated for a ≈0.3 linear-classifier error floor.
CIFAR_SEPARATION = 2.1

def cifar_like_generator(structure_seed: int = 0) -> ClassClusterGenerator:
    """The fixed class geometry behind all CIFAR-like draws."""
    spec = ClusterSpec(
        num_classes=CIFAR_CLASSES,
        num_features=CIFAR_DIM,
        subclusters_per_class=6,
        class_separation=CIFAR_SEPARATION,
        subcluster_spread=0.5,
    )
    return ClassClusterGenerator(spec, structure_seed=structure_seed)


def make_cifar_like(
    num_train: int = 50_000,
    num_test: int = 10_000,
    seed: int = 0,
    structure_seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Return (train, test) CIFAR-like datasets.

    >>> train, test = make_cifar_like(num_train=100, num_test=50)
    >>> train.num_features, train.num_classes
    (100, 10)
    """
    generator = cifar_like_generator(structure_seed)
    rng = RngFactory(seed).generator("cifar-like")
    return generator.sample_train_test(num_train, num_test, rng)
