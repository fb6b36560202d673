"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.evaluation import snapshot_grid, time_averaged_error
from repro.evaluation import test_error as compute_test_error
from repro.evaluation import test_loss as compute_test_loss
from repro.models import MulticlassLogisticRegression


class TestTestError:
    def test_perfect_classifier(self):
        model = MulticlassLogisticRegression(1, 2)
        ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
        assert compute_test_error(model, np.array([-1.0, 1.0]), ds) == 0.0

    def test_inverted_classifier(self):
        model = MulticlassLogisticRegression(1, 2)
        ds = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
        assert compute_test_error(model, np.array([1.0, -1.0]), ds) == 1.0

    def test_empty_dataset_raises(self):
        model = MulticlassLogisticRegression(1, 2)
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            compute_test_error(model, np.zeros(2), ds)

    def test_loss_includes_regularization(self):
        model = MulticlassLogisticRegression(1, 2, l2_regularization=2.0)
        ds = Dataset(np.array([[0.0]]), np.array([0]), 2)
        w = np.array([1.0, 0.0])
        assert compute_test_loss(model, w, ds) == pytest.approx(np.log(2.0) + 1.0)


class TestTimeAveragedError:
    def test_fig3_definition(self):
        errors = np.array([True, False, False, True])
        out = time_averaged_error(errors)
        assert np.allclose(out, [1.0, 0.5, 1 / 3, 0.5])

    def test_converges_to_rate(self, rng):
        errors = rng.random(20_000) < 0.2
        out = time_averaged_error(errors)
        assert out[-1] == pytest.approx(0.2, abs=0.02)


class TestSnapshotGrid:
    def test_includes_endpoint(self):
        grid = snapshot_grid(1000, 10)
        assert grid[-1] == 1000
        assert grid[0] == 1

    def test_unique_and_increasing(self):
        grid = snapshot_grid(50, 100)
        assert np.all(np.diff(grid) > 0)
        assert grid.size == 50  # clipped to max_iterations points

    def test_small_horizon(self):
        assert snapshot_grid(1, 10).tolist() == [1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            snapshot_grid(0, 10)
        with pytest.raises(ValueError):
            snapshot_grid(10, 0)


class TestSnapshotEvaluator:
    def _setup(self, num_test=40):
        from repro.data import make_mnist_like

        model = MulticlassLogisticRegression(50, 10)
        _, test = make_mnist_like(num_train=20, num_test=num_test, seed=0)
        return model, test

    def test_matches_test_error_bitwise(self):
        from repro.evaluation.metrics import SnapshotEvaluator

        model, test = self._setup()
        evaluator = SnapshotEvaluator(model, test)
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = rng.normal(size=model.num_parameters)
            assert evaluator.error(params) == compute_test_error(model, params, test)

    def test_repeated_parameters_hit_cache(self):
        from repro.evaluation.metrics import SnapshotEvaluator

        model, test = self._setup()
        evaluator = SnapshotEvaluator(model, test)
        params = np.random.default_rng(0).normal(size=model.num_parameters)
        first = evaluator.error(params)
        for _ in range(3):
            assert evaluator.error(params.copy()) == first
        assert evaluator.misses == 1
        assert evaluator.hits == 3
