"""Tests for the privacy accountant."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeviceConfig
from repro.core.device import Device
from repro.models import MulticlassLogisticRegression
from repro.privacy.accountant import PrivacyAccountant, checkin_sums
from repro.privacy.budget import PrivacyBudget


def _checkin(eps_g=0.98, eps_e=0.01, eps_y=0.001, classes=10):
    return checkin_sums([(eps_g, 1), (eps_e, 1), (eps_y, classes)])


class TestPerSampleAccounting:
    def test_single_checkin_sums_releases(self):
        acct = PrivacyAccountant()
        acct.charge_checkin(_checkin())
        spend = acct.spend()
        assert spend.per_sample_epsilon == pytest.approx(0.98 + 0.01 + 10 * 0.001)

    def test_per_sample_is_max_across_checkins(self):
        """Appendix A: sensitivity of many minibatches = one minibatch, so
        the per-sample guarantee does not accumulate across check-ins."""
        acct = PrivacyAccountant()
        for _ in range(50):
            acct.charge_checkin(_checkin())
        single = 0.98 + 0.01 + 10 * 0.001
        assert acct.spend().per_sample_epsilon == pytest.approx(single)

    def test_total_epsilon_accumulates(self):
        acct = PrivacyAccountant()
        for _ in range(3):
            acct.charge_checkin(_checkin())
        single = 0.98 + 0.01 + 10 * 0.001
        assert acct.spend().total_epsilon == pytest.approx(3 * single)

    def test_infinite_releases_cost_nothing(self):
        acct = PrivacyAccountant()
        acct.charge_checkin(checkin_sums([(math.inf, 1)]))
        assert acct.spend().per_sample_epsilon == 0.0
        assert acct.spend().total_epsilon == 0.0

    def test_num_releases_counted(self):
        acct = PrivacyAccountant()
        acct.charge_checkin(_checkin())
        assert acct.spend().num_releases == 12


levels = st.one_of(st.just(math.inf), st.floats(min_value=1e-3, max_value=100.0))


class TestAggregatedReleases:
    """A check-in's C label-count releases charge as one ``(ε_yk, C)``
    pair, exactly as the expanded release sequence would."""

    def test_ledger_growth_is_constant_per_checkin(self):
        """The tally is three numbers: charging allocates nothing that
        outlives the call, however many check-ins a device makes."""
        acct = PrivacyAccountant()
        sums = _checkin()
        tracemalloc.start()
        try:
            for _ in range(100):  # past the small-int cache
                acct.charge_checkin(sums)
            before = tracemalloc.take_snapshot()
            for _ in range(10_000):
                acct.charge_checkin(sums)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename.endswith("accountant.py")
        )
        # Swapping one held number for a wider one may cost a few bytes;
        # one byte a check-in would be 10 kB.
        assert grown < 1024, grown
        assert acct.spend().num_releases == 10_100 * 12

    @settings(max_examples=60, deadline=None)
    @given(
        eps_g=levels,
        eps_e=levels,
        eps_y=levels,
        classes=st.integers(min_value=2, max_value=12),
        batch_size=st.integers(min_value=1, max_value=6),
        checkins=st.integers(min_value=1, max_value=8),
    )
    def test_aggregated_equals_expanded_bitwise(
        self, eps_g, eps_e, eps_y, classes, batch_size, checkins
    ):
        """A device's spend is the hand-written expanded sums, bit for bit:
        per check-in ε_g, then ε_e, then ε_yk C times (ε = ∞ skipped); the
        max over check-ins and the running total over them."""
        budget = PrivacyBudget(eps_g, eps_e, eps_y, classes)
        model = MulticlassLogisticRegression(num_features=3, num_classes=classes)
        config = DeviceConfig(
            batch_size=batch_size, buffer_capacity=batch_size, budget=budget
        )
        device = Device(0, model, config, "t", np.random.default_rng(0))
        features = np.full((batch_size, 3), 0.2)
        labels = np.arange(batch_size) % classes
        for _ in range(checkins):
            device.observe_batch(features, labels)
            device.complete_checkout(np.zeros(model.num_parameters), 0)

        one = 0.0
        for level in [eps_g, eps_e] + [eps_y] * classes:
            if not math.isinf(level):
                one += level
        total = 0.0
        for _ in range(checkins):
            total += one
        spend = device.accountant.spend()
        assert spend.per_sample_epsilon == one
        assert spend.total_epsilon == total
        assert spend.num_releases == checkins * (classes + 2)
