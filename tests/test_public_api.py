"""Tests of the top-level public API surface."""

import math

import pytest

import repro


class TestExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.data
        import repro.evaluation
        import repro.experiments
        import repro.features
        import repro.gateway
        import repro.models
        import repro.network
        import repro.obs
        import repro.optim
        import repro.persist
        import repro.portal
        import repro.privacy
        import repro.serve
        import repro.shard
        import repro.simulation
        import repro.store
        import repro.utils

    def test_subpackage_all_names_resolve(self):
        import repro.analysis
        import repro.core
        import repro.data
        import repro.gateway
        import repro.models
        import repro.network
        import repro.obs
        import repro.optim
        import repro.persist
        import repro.privacy
        import repro.serve
        import repro.shard
        import repro.simulation

        for module in (
            repro.analysis,
            repro.core,
            repro.data,
            repro.gateway,
            repro.models,
            repro.network,
            repro.obs,
            repro.optim,
            repro.persist,
            repro.privacy,
            repro.serve,
            repro.shard,
            repro.simulation,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestQuickCrowdRun:
    @pytest.fixture(scope="class")
    def report(self):
        return repro.quick_crowd_run(
            num_devices=10, num_train=400, num_test=200, seed=0
        )

    def test_returns_trial_report(self, report):
        assert report.num_trials == 1
        assert 0.0 <= report.final_error <= 1.0

    def test_learns_something(self, report):
        curve = report.mean_curve
        assert curve.final_error < curve.errors[0]

    def test_private_run(self):
        report = repro.quick_crowd_run(
            num_devices=10, epsilon=5.0, batch_size=5,
            num_train=400, num_test=200,
        )
        assert report.traces[0].per_sample_epsilon == pytest.approx(5.0)

    def test_reproducible(self, report):
        again = repro.quick_crowd_run(
            num_devices=10, num_train=400, num_test=200, seed=0
        )
        assert again.final_error == report.final_error
