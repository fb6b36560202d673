"""Tests for Device Routine 3 (check-in sanitization)."""

import numpy as np
import pytest

from repro.core.sanitizer import CheckinSanitizer, shared_calibration
from repro.models import MulticlassLogisticRegression
from repro.privacy import PrivacyBudget, split_budget


@pytest.fixture
def model():
    return MulticlassLogisticRegression(num_features=4, num_classes=3)


class TestNonPrivate:
    def test_identity_for_infinite_budget(self, model, rng):
        sanitizer = CheckinSanitizer(model, PrivacyBudget.non_private(3), rng)
        gradient = np.arange(12.0)
        out = sanitizer.sanitize(gradient, 2, np.array([1, 2, 2]), num_samples=5)
        assert np.array_equal(out.gradient, gradient)
        assert out.error_count == 2
        assert np.array_equal(out.label_counts, [1, 2, 2])

    def test_records_present_even_when_non_private(self, model, rng):
        sanitizer = CheckinSanitizer(model, PrivacyBudget.non_private(3), rng)
        out = sanitizer.sanitize(np.zeros(12), 0, np.zeros(3, dtype=int), 5)
        # gradient + error + 3 label counts, none of which costs anything.
        assert out.release_sums == (0.0, 5)


class TestPrivate:
    def test_gradient_noised(self, model, rng):
        budget = split_budget(1.0, 3)
        sanitizer = CheckinSanitizer(model, budget, rng)
        out = sanitizer.sanitize(np.zeros(12), 0, np.zeros(3, dtype=int), 5)
        assert not np.allclose(out.gradient, 0.0)

    def test_counts_are_integers(self, model, rng):
        budget = split_budget(1.0, 3)
        sanitizer = CheckinSanitizer(model, budget, rng)
        out = sanitizer.sanitize(np.zeros(12), 3, np.array([2, 2, 1]), 5)
        assert isinstance(out.error_count, int)
        assert out.label_counts.dtype == np.int64

    def test_gradient_mechanism_calibrated_to_batch(self, model, rng):
        """Sensitivity 4/n_s: the memoized Laplace scale must track n_s."""
        budget = split_budget(1.0, 3)
        sanitizer = CheckinSanitizer(model, budget, rng)
        for num_samples in (1, 20):
            sanitizer.sanitize(np.zeros(12), 0, np.zeros(3, dtype=int), num_samples)
        rounds = shared_calibration(model, budget).rounds
        small, large = rounds[1, 3][0], rounds[20, 3][0]
        assert small == pytest.approx(4.0 / budget.epsilon_gradient)
        assert large == pytest.approx(0.2 / budget.epsilon_gradient)
        assert large == pytest.approx(small / 20)

    def test_release_records_decompose_budget(self, model, rng):
        budget = split_budget(1.0, 3)
        sanitizer = CheckinSanitizer(model, budget, rng)
        out = sanitizer.sanitize(np.zeros(12), 0, np.zeros(3, dtype=int), 5)
        total, count = out.release_sums
        assert total == pytest.approx(budget.total_epsilon)
        assert count == 2 + 3

    def test_noise_shrinks_with_batch_size(self, model):
        """Eq. 13's mechanism term: larger n_s → less gradient noise."""
        budget = split_budget(1.0, 3)

        def noise_norm(ns, seed):
            sanitizer = CheckinSanitizer(model, budget, np.random.default_rng(seed))
            out = sanitizer.sanitize(np.zeros(12), 0, np.zeros(3, dtype=int), ns)
            return float(np.abs(out.gradient).sum())

        small = np.mean([noise_norm(1, s) for s in range(200)])
        large = np.mean([noise_norm(50, s) for s in range(200)])
        assert large < small / 10


class TestMechanismMemoization:
    """The calibration is computed once per realized n_s, crowd-wide."""

    @pytest.fixture
    def budget(self):
        return split_budget(1.0, 3)

    @pytest.fixture
    def calibrations(self, monkeypatch):
        """The ``(n_s, C)`` of every :meth:`SanitizerCalibration.calibrate`."""
        from repro.core.sanitizer import SanitizerCalibration

        calls = []
        calibrate = SanitizerCalibration.calibrate

        def recording(self, model, num_samples, num_labels):
            calls.append((num_samples, num_labels))
            return calibrate(self, model, num_samples, num_labels)

        monkeypatch.setattr(SanitizerCalibration, "calibrate", recording)
        return calls

    def test_same_num_samples_reuses_mechanism(self, model, budget, calibrations):
        gradient, counts = np.zeros(model.num_parameters), np.array([1, 1, 1])
        for seed in range(3):
            sanitizer = CheckinSanitizer(model, budget, np.random.default_rng(seed))
            sanitizer.sanitize(gradient, 0, counts, 5)
            sanitizer.sanitize(gradient, 0, counts, 5)
        assert calibrations == [(5, 3)]

    def test_different_num_samples_recalibrates(self, model, budget, calibrations):
        sanitizer = CheckinSanitizer(model, budget, np.random.default_rng(0))
        gradient, counts = np.zeros(model.num_parameters), np.array([1, 1, 1])
        sanitizer.sanitize(gradient, 0, counts, 5)
        sanitizer.sanitize(gradient, 0, counts, 7)
        assert calibrations == [(5, 3), (7, 3)]
        rounds = shared_calibration(model, budget).rounds
        assert rounds[5, 3][0] != rounds[7, 3][0]

    def test_memoized_noise_stream_matches_fresh_mechanisms(self, model, budget):
        """Reusing one mechanism draws the same noise sequence as
        rebuilding it per check-in from the same shared RNG."""
        from repro.privacy import DiscreteLaplaceMechanism, LaplaceMechanism

        gradient = np.zeros(model.num_parameters)
        counts = np.array([2, 2, 1])
        memoized = CheckinSanitizer(model, budget, np.random.default_rng(42))
        outputs = [memoized.sanitize(gradient, 1, counts, 5) for _ in range(4)]
        fresh_rng = np.random.default_rng(42)
        fresh_error = DiscreteLaplaceMechanism(budget.epsilon_error, fresh_rng)
        fresh_label = DiscreteLaplaceMechanism(budget.epsilon_label, fresh_rng)
        for sanitized in outputs:
            mech = LaplaceMechanism(
                budget.epsilon_gradient,
                model.gradient_sensitivity(5), fresh_rng,
            )
            assert np.array_equal(sanitized.gradient, mech.release(gradient))
            assert sanitized.error_count == fresh_error.release(1)
            assert np.array_equal(
                sanitized.label_counts, fresh_label.release(counts)
            )

    def test_release_groups_match_expanded_releases(self, model, budget):
        from repro.privacy.accountant import checkin_sums

        sanitizer = CheckinSanitizer(model, budget, np.random.default_rng(0))
        sanitized = sanitizer.sanitize(
            np.zeros(model.num_parameters), 0, np.array([3, 2, 0]), 5
        )
        # grad + err + C labels, one release at a time.
        expanded = [(budget.epsilon_gradient, 1), (budget.epsilon_error, 1)]
        expanded += [(budget.epsilon_label, 1)] * 3
        assert sanitized.release_sums == checkin_sums(expanded)
        assert sanitized.release_sums[1] == 2 + 3

    def test_release_tuples_reused_across_checkins(self, model, budget):
        sanitizer = CheckinSanitizer(model, budget, np.random.default_rng(0))
        first = sanitizer.sanitize(
            np.zeros(model.num_parameters), 0, np.array([3, 2, 0]), 5
        )
        second = sanitizer.sanitize(
            np.zeros(model.num_parameters), 1, np.array([1, 4, 0]), 5
        )
        assert first.release_sums is second.release_sums
