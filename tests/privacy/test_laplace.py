"""Tests for the vector Laplace mechanism (Eqs. 9-10)."""

import math

import numpy as np
import pytest

from repro.privacy.laplace import LaplaceMechanism, laplace_scale
from repro.utils.exceptions import ConfigurationError


class TestLaplaceScale:
    def test_ratio(self):
        assert laplace_scale(4.0, 2.0) == 2.0

    def test_eq10_calibration(self):
        # Eq. (10): sensitivity 4/b at level eps_g -> scale 4/(b*eps).
        b, eps = 20, 10.0
        assert laplace_scale(4.0 / b, eps) == pytest.approx(4.0 / (b * eps))

    def test_infinite_epsilon_gives_zero(self):
        assert laplace_scale(1.0, math.inf) == 0.0

    def test_rejects_nonpositive_sensitivity(self):
        with pytest.raises(ConfigurationError):
            laplace_scale(0.0, 1.0)


class TestLaplaceMechanism:
    def test_identity_when_non_private(self):
        mech = LaplaceMechanism(math.inf, sensitivity=4.0)
        value = np.array([1.0, -2.0, 3.0])
        out = mech.release(value)
        assert np.array_equal(out, value)
        assert out is not value  # defensive copy

    def test_adds_noise_when_private(self):
        mech = LaplaceMechanism(1.0, 4.0, rng=np.random.default_rng(0))
        out = mech.release(np.zeros(100))
        assert not np.allclose(out, 0.0)

    def test_noise_is_unbiased(self):
        mech = LaplaceMechanism(1.0, 1.0, rng=np.random.default_rng(0))
        out = mech.release(np.zeros(200_000))
        assert abs(out.mean()) < 0.02

    def test_noise_variance_matches_formula(self):
        eps, sens = 2.0, 3.0
        mech = LaplaceMechanism(eps, sens, rng=np.random.default_rng(1))
        out = mech.release(np.zeros(200_000))
        expected = 2.0 * (sens / eps) ** 2
        assert out.var() == pytest.approx(expected, rel=0.05)

    def test_expected_noise_power_eq13(self):
        # 32 D / (b eps)^2 for the gradient mechanism.
        b, eps, dim = 20, 10.0, 50
        mech = LaplaceMechanism(eps, 4.0 / b)
        assert mech.expected_noise_power(dim) == pytest.approx(
            32.0 * dim / (b * eps) ** 2
        )

    def test_deterministic_with_seeded_rng(self):
        a = LaplaceMechanism(1.0, 1.0, rng=np.random.default_rng(7)).release(np.zeros(5))
        b = LaplaceMechanism(1.0, 1.0, rng=np.random.default_rng(7)).release(np.zeros(5))
        assert np.array_equal(a, b)

    def test_shape_preserved(self):
        mech = LaplaceMechanism(1.0, 1.0, rng=np.random.default_rng(0))
        assert mech.release(np.zeros((3, 4))).shape == (3, 4)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            LaplaceMechanism(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            LaplaceMechanism(-1.0, 1.0)

    def test_record_carries_metadata(self):
        mech = LaplaceMechanism(1.5, 2.0)
        assert mech.epsilon == 1.5
        assert mech.sensitivity == 2.0
        assert mech.scale == 2.0 / 1.5
        assert not mech.is_identity

    def test_empirical_privacy_ratio(self):
        """Likelihood ratio of outputs on adjacent values stays within e^eps.

        For scalar Laplace with sensitivity s, the density ratio between
        f(D)=0 and f(D')=s at any output z is bounded by exp(eps).  We check
        the histogram ratio empirically on a coarse grid.
        """
        eps, sens = 1.0, 1.0
        rng = np.random.default_rng(3)
        n = 400_000
        scale = sens / eps
        out_a = 0.0 + rng.laplace(0, scale, n)
        out_b = sens + rng.laplace(0, scale, n)
        bins = np.linspace(-2, 3, 26)
        hist_a, _ = np.histogram(out_a, bins=bins)
        hist_b, _ = np.histogram(out_b, bins=bins)
        mask = (hist_a > 500) & (hist_b > 500)
        ratios = hist_a[mask] / hist_b[mask]
        # Allow slack for sampling error on top of e^eps.
        assert np.all(ratios <= math.exp(eps) * 1.15)
        assert np.all(ratios >= math.exp(-eps) / 1.15)
