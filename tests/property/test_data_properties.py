"""Property-based tests for data plumbing invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, iid_partition
from repro.data.partition import _split_by_assignment
from repro.data.synthetic import ClassClusterGenerator, ClusterSpec
from repro.evaluation import ErrorCurve, average_curves
from repro.utils.numerics import l1_normalize


class TestL1NormalizationInvariant:
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 50),
        d=st.integers(1, 30),
    )
    @settings(max_examples=60)
    def test_l1_bound_always_holds(self, seed, n, d):
        raw = np.random.default_rng(seed).normal(size=(n, d)) * 100
        out = l1_normalize(raw)
        assert np.all(np.sum(np.abs(out), axis=1) <= 1.0 + 1e-9)


class TestGeneratorInvariants:
    @given(
        classes=st.integers(2, 8),
        dim=st.integers(2, 30),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30)
    def test_samples_satisfy_sensitivity_precondition(self, classes, dim, seed):
        """Every generated dataset must satisfy ‖x‖₁ ≤ 1 — the assumption
        behind every sensitivity bound in the paper."""
        spec = ClusterSpec(num_classes=classes, num_features=dim)
        gen = ClassClusterGenerator(spec, structure_seed=0)
        ds = gen.sample(50, np.random.default_rng(seed))
        assert ds.max_l1_norm <= 1.0 + 1e-9
        assert set(np.unique(ds.labels)) <= set(range(classes))


class TestPartitionInvariants:
    @given(
        n=st.integers(10, 200),
        devices=st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_iid_partition_conserves_samples(self, n, devices, seed):
        ds = Dataset(np.zeros((n, 2)), np.zeros(n, dtype=int), 2)
        parts = iid_partition(ds, devices, np.random.default_rng(seed))
        assert sum(len(p) for p in parts) == n
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestSplitByAssignment:
    @given(
        n=st.integers(1, 120),
        devices=st.integers(1, 160),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=80)
    def test_equals_a_scan_per_device(self, n, devices, seed):
        """One sort plus binary-searched bounds gives every device what a
        per-device ``np.where`` scan gives: its rows, ascending — also for
        devices assigned nothing and for more devices than samples."""
        rng = np.random.default_rng(seed)
        # Assign to a random subset of the devices so some stay empty.
        used = rng.integers(1, devices + 1)
        assignment = rng.choice(devices, size=used, replace=False)[
            rng.integers(0, used, size=n)]
        rows = np.arange(n, dtype=np.float64)
        ds = Dataset(np.stack([rows, -rows], axis=1), rng.integers(0, 3, size=n), 3)
        parts = _split_by_assignment(ds, assignment, devices)
        assert len(parts) == devices
        for m, part in enumerate(parts):
            want = np.where(assignment == m)[0]
            assert np.array_equal(part.features[:, 0], want)
            assert np.array_equal(part.labels, ds.labels[want])


class TestCurveAveragingInvariants:
    @given(
        errors=st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_average_bounded_by_extremes(self, errors):
        curves = [
            ErrorCurve(np.array([1, 2, 3]), np.asarray(e)) for e in errors
        ]
        avg = average_curves(curves)
        stacked = np.asarray(errors)
        assert np.all(avg.errors <= stacked.max(axis=0) + 1e-12)
        assert np.all(avg.errors >= stacked.min(axis=0) - 1e-12)
