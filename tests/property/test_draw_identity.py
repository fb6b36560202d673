"""Discrete Laplace noise drawn in one call equals the two-call reference.

``discrete_laplace_noise`` draws both geometric vectors as the rows of one
``(2, *shape)`` block.  Filled in C order, that block takes the same
stream positions as two successive ``rng.geometric(p, shape)`` calls, so
the noise, its dtype and the generator's state afterwards must all match
the two-call difference — for every success probability, including the
``p < 1/3`` range where NumPy samples by inversion instead of search.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.privacy.discrete_laplace import (
    DiscreteLaplaceMechanism,
    discrete_laplace_noise,
    geometric_success,
)

successes = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
shapes = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=16),
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def two_call_reference(success, rng, shape):
    return rng.geometric(success, shape) - rng.geometric(success, shape)


def same_draws(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestOneCallNoise:
    @given(success=successes, shape=shapes, seed=seeds)
    @settings(max_examples=200)
    def test_equals_two_call_reference(self, success, shape, seed):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        noise = discrete_laplace_noise(success, rng, shape)
        expected = two_call_reference(success, reference_rng, shape)
        assert same_draws(noise, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(epsilon=st.floats(min_value=1e-3, max_value=50.0), seed=seeds,
           value=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_mechanism_scalar_release_matches(self, epsilon, seed, value):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        released = DiscreteLaplaceMechanism(epsilon, rng=rng).release(value)
        success = geometric_success(epsilon)
        expected = value + int(two_call_reference(success, reference_rng, 1)[0])
        assert type(released) is int and released == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(epsilon=st.floats(min_value=1e-3, max_value=50.0), seed=seeds,
           counts=hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                             elements=st.integers(0, 10_000)))
    @settings(max_examples=100)
    def test_mechanism_array_release_matches(self, epsilon, seed, counts):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        released = DiscreteLaplaceMechanism(epsilon, rng=rng).release(counts)
        success = geometric_success(epsilon)
        expected = counts + two_call_reference(success, reference_rng, counts.shape)
        assert same_draws(released, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
