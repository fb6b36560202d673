"""Tests for the class-structured synthetic generator."""

import tracemalloc

import numpy as np
import pytest

from repro.data.cifar_like import cifar_like_generator
from repro.data.mnist_like import mnist_like_generator
from repro.data.synthetic import _BLOCK_ROWS, ClassClusterGenerator, ClusterSpec
from repro.utils.exceptions import ConfigurationError
from repro.utils.numerics import l1_normalize


@pytest.fixture
def generator():
    spec = ClusterSpec(num_classes=4, num_features=10, class_separation=3.0)
    return ClassClusterGenerator(spec, structure_seed=0)


class TestGeometry:
    def test_class_means_shape_and_norm(self, generator):
        means = generator.class_means
        assert means.shape == (4, 10)
        assert np.allclose(np.linalg.norm(means, axis=1), 3.0)

    def test_structure_reproducible(self):
        spec = ClusterSpec(num_classes=3, num_features=5)
        a = ClassClusterGenerator(spec, structure_seed=7).class_means
        b = ClassClusterGenerator(spec, structure_seed=7).class_means
        assert np.array_equal(a, b)

    def test_structure_varies_with_seed(self):
        spec = ClusterSpec(num_classes=3, num_features=5)
        a = ClassClusterGenerator(spec, structure_seed=0).class_means
        b = ClassClusterGenerator(spec, structure_seed=1).class_means
        assert not np.allclose(a, b)


class TestSampling:
    def test_shapes_and_l1_bound(self, generator, rng):
        ds = generator.sample(200, rng)
        assert len(ds) == 200
        assert ds.num_features == 10
        assert ds.max_l1_norm <= 1.0 + 1e-9

    def test_all_classes_present(self, generator, rng):
        ds = generator.sample(400, rng)
        assert np.all(ds.class_counts() > 0)

    def test_uniform_prior_by_default(self, generator, rng):
        ds = generator.sample(40_000, rng)
        freqs = ds.class_counts() / len(ds)
        assert np.allclose(freqs, 0.25, atol=0.02)

    def test_custom_class_distribution(self, generator, rng):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        ds = generator.sample(20_000, rng, class_distribution=probs)
        freqs = ds.class_counts() / len(ds)
        assert np.allclose(freqs, probs, atol=0.02)

    def test_rejects_bad_distribution(self, generator, rng):
        with pytest.raises(ValueError):
            generator.sample(10, rng, class_distribution=np.array([0.5, 0.5]))

    def test_train_test_disjoint_draws(self, generator, rng):
        train, test = generator.sample_train_test(100, 50, rng)
        assert len(train) == 100
        assert len(test) == 50
        # Independent draws virtually never coincide.
        assert not np.allclose(train.features[:50], test.features)

    def test_sampling_deterministic_given_rng(self, generator):
        a = generator.sample(20, np.random.default_rng(5))
        b = generator.sample(20, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def reference_l1_normalize(features, eps=1e-12):
    """The out-of-place formula: norms, guarded divisor, a fresh quotient."""
    norms = np.sum(np.abs(features), axis=-1, keepdims=True)
    return features / np.where(norms > eps, norms, 1.0)


def reference_sample(generator, num_samples, rng, class_distribution=None):
    """The generator as one expression over whole arrays: every temporary
    (prototypes, noise, their sum, its absolute value, the quotient) is
    held at once."""
    spec = generator.spec
    if class_distribution is None:
        labels = rng.integers(0, spec.num_classes, size=num_samples)
    else:
        labels = rng.choice(spec.num_classes, size=num_samples, p=class_distribution)
    styles = rng.integers(0, spec.subclusters_per_class, size=num_samples)
    centers = generator._prototypes[labels, styles]
    noise = rng.normal(size=(num_samples, spec.num_features))
    return reference_l1_normalize(centers + noise), labels


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SKEWED_PRIOR = np.array([0.3, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05])


class TestInPlaceGeneration:
    """``sample`` builds its features in the noise buffer, a row block at a
    time; the bytes must be those of the whole-array expression."""

    @pytest.mark.parametrize("make", [mnist_like_generator, cifar_like_generator],
                             ids=["mnist_like", "cifar_like"])
    @pytest.mark.parametrize("prior", [None, SKEWED_PRIOR], ids=["uniform", "skewed"])
    @pytest.mark.parametrize(
        "num_samples", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 20_000])
    def test_bytes_equal_whole_array_expression(self, make, prior, num_samples):
        generator = make(0)
        got = generator.sample(num_samples, np.random.default_rng(num_samples),
                               class_distribution=prior)
        want, labels = reference_sample(generator, num_samples,
                                        np.random.default_rng(num_samples), prior)
        assert same_bytes(got.features, want)
        assert same_bytes(got.labels, labels.astype(np.int64))

    def test_l1_normalize_equals_out_of_place_formula(self, rng):
        raw = rng.normal(size=(300, 7)) * 50
        raw[3] = 0.0  # a zero row stays zero
        out = l1_normalize(raw)
        assert same_bytes(out, reference_l1_normalize(raw))
        assert out is not raw and not np.shares_memory(out, raw)

    def test_peak_allocation_near_the_features_returned(self):
        """The whole-array expression peaks at ~4.1x the features it
        returns; building them in place stays within 1.5x."""
        generator = mnist_like_generator(0)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            dataset = generator.sample(20_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * dataset.features.nbytes


class TestSeparationKnob:
    def test_separation_controls_class_distinguishability(self, rng):
        """Higher separation = lower nearest-mean error (the calibration
        property DESIGN.md relies on)."""

        def nearest_mean_error(sep):
            spec = ClusterSpec(num_classes=5, num_features=20, class_separation=sep)
            gen = ClassClusterGenerator(spec, structure_seed=0)
            train = gen.sample(2000, np.random.default_rng(1))
            test = gen.sample(1000, np.random.default_rng(2))
            means = np.stack(
                [train.features[train.labels == c].mean(axis=0) for c in range(5)]
            )
            dists = ((test.features[:, None, :] - means[None]) ** 2).sum(axis=2)
            return float(np.mean(dists.argmin(axis=1) != test.labels))

        assert nearest_mean_error(5.0) < nearest_mean_error(1.0)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_classes": 0, "num_features": 5},
            {"num_classes": 3, "num_features": 0},
            {"num_classes": 3, "num_features": 5, "class_separation": 0.0},
            {"num_classes": 3, "num_features": 5, "subclusters_per_class": 0},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterSpec(**kwargs)
