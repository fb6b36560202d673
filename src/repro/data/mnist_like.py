"""MNIST-like synthetic digit-recognition dataset (DESIGN.md §3 substitution).

The paper uses MNIST preprocessed with PCA to 50 dimensions and L1
normalization; the multinomial-logistic test error reached by the
centralized batch baseline is ≈ 0.1 (Fig. 4).  This generator matches the
interface of that preprocessed dataset: 10 classes, D = 50, ``‖x‖₁ ≤ 1``,
and a class geometry tuned so that a linear classifier reaches an error
floor near 0.1.  It emits post-PCA, L1-normalized features directly, so
there is no PCA step to run on it; a loader for real MNIST brings its own
preprocessing (:class:`~repro.data.preprocessing.PcaL1Pipeline`).

The canonical configuration is ``make_mnist_like()`` — 60 000 train and
10 000 test samples, exactly the paper's sizes.  Smaller sizes are accepted
for tests.
"""

from __future__ import annotations

from repro.data.dataset import Dataset
from repro.data.synthetic import ClassClusterGenerator, ClusterSpec
from repro.utils.rng import RngFactory

#: Feature dimension after the paper's PCA step.
MNIST_DIM = 50
#: Number of digit classes.
MNIST_CLASSES = 10
#: Class-separation knob calibrated so multinomial logistic regression
#: plateaus near the paper's 0.1 test error on this generator.
MNIST_SEPARATION = 2.95

def mnist_like_generator(structure_seed: int = 0) -> ClassClusterGenerator:
    """The fixed class geometry behind all MNIST-like draws."""
    spec = ClusterSpec(
        num_classes=MNIST_CLASSES,
        num_features=MNIST_DIM,
        subclusters_per_class=4,
        class_separation=MNIST_SEPARATION,
        subcluster_spread=0.5,
    )
    return ClassClusterGenerator(spec, structure_seed=structure_seed)


def make_mnist_like(
    num_train: int = 60_000,
    num_test: int = 10_000,
    seed: int = 0,
    structure_seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Return (train, test) MNIST-like datasets.

    ``seed`` varies the sampled points (per trial); ``structure_seed``
    varies the underlying class geometry (kept fixed across trials, like
    the real MNIST distribution is).

    >>> train, test = make_mnist_like(num_train=100, num_test=50)
    >>> train.num_features, train.num_classes
    (50, 10)
    """
    generator = mnist_like_generator(structure_seed)
    rng = RngFactory(seed).generator("mnist-like")
    return generator.sample_train_test(num_train, num_test, rng)
