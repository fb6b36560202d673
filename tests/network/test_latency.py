"""Tests for communication-delay models (Section IV-B3, footnote 7)."""

import numpy as np
import pytest

from repro.network import (
    ConstantDelay,
    ExponentialDelay,
    LinkDelays,
    LogNormalDelay,
    UniformDelay,
    ZeroDelay,
)


class TestZeroAndConstant:
    def test_zero(self, rng):
        model = ZeroDelay()
        assert model.sample(rng) == 0.0
        assert model.mean == 0.0

    def test_constant(self, rng):
        model = ConstantDelay(1.5)
        assert model.sample(rng) == 1.5
        assert model.mean == 1.5


class TestUniform:
    def test_range(self, rng):
        model = UniformDelay(2.0)
        draws = np.array([model.sample(rng) for _ in range(2000)])
        assert draws.min() >= 0.0
        assert draws.max() <= 2.0

    def test_mean(self, rng):
        model = UniformDelay(2.0)
        draws = np.array([model.sample(rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(1.0, rel=0.05)
        assert model.mean == 1.0

    def test_zero_maximum_degenerates(self, rng):
        model = UniformDelay(0.0)
        assert model.sample(rng) == 0.0

    def test_uniformity(self, rng):
        """Paper: 'delays are sampled randomly and uniformly from [0, τ]'."""
        model = UniformDelay(1.0)
        draws = np.array([model.sample(rng) for _ in range(50_000)])
        hist, _ = np.histogram(draws, bins=10, range=(0, 1))
        assert hist.std() / hist.mean() < 0.05

    @pytest.mark.parametrize("maximum", [0.2, 1.0, 3.7e-4, 123.456])
    def test_same_draws_and_stream_as_generator_uniform(self, maximum):
        """Twin generators: each draw is the double ``rng.uniform(0, τ)``
        returns, and both streams stay in step."""
        mine, theirs = np.random.default_rng(11), np.random.default_rng(11)
        model = UniformDelay(maximum)
        for _ in range(5_000):
            draw = model.sample(mine)
            assert type(draw) is float
            assert draw == float(theirs.uniform(0.0, maximum))
        assert mine.random() == theirs.random()


class TestExponentialAndLogNormal:
    def test_exponential_mean(self, rng):
        model = ExponentialDelay(0.5)
        draws = np.array([model.sample(rng) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(0.5, rel=0.05)

    def test_lognormal_positive_with_offset(self, rng):
        model = LogNormalDelay(median=1.0, sigma=0.5, offset=0.2)
        draws = np.array([model.sample(rng) for _ in range(1000)])
        assert draws.min() >= 0.2

    def test_lognormal_mean_formula(self, rng):
        model = LogNormalDelay(median=1.0, sigma=0.5)
        draws = np.array([model.sample(rng) for _ in range(200_000)])
        assert draws.mean() == pytest.approx(model.mean, rel=0.05)

    def test_lognormal_heavy_tail(self, rng):
        """The lognormal's P95 exceeds the exponential's for equal means."""
        logn = LogNormalDelay(median=1.0, sigma=1.5)
        expo = ExponentialDelay(logn.mean)
        ldraws = np.array([logn.sample(rng) for _ in range(20_000)])
        edraws = np.array([expo.sample(rng) for _ in range(20_000)])
        assert np.quantile(ldraws, 0.99) > np.quantile(edraws, 0.99)


class TestLinkDelays:
    def test_uniform_constructor(self):
        delays = LinkDelays.uniform(3.0)
        assert isinstance(delays.request, UniformDelay)
        assert delays.request.maximum == 3.0
        assert delays.mean_round_trip == pytest.approx(3 * 1.5)

    def test_zero_constructor(self):
        delays = LinkDelays.zero()
        assert delays.mean_round_trip == 0.0

    def test_heterogeneous_legs(self):
        delays = LinkDelays(ZeroDelay(), ConstantDelay(1.0), ConstantDelay(2.0))
        assert delays.mean_round_trip == 3.0
