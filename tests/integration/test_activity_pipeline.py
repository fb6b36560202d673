"""Integration test of the Fig. 3 activity-recognition pipeline:
7 devices, 3-class logistic regression, online time-averaged error."""

import numpy as np
import pytest

from repro.data import NUM_ACTIVITIES, make_activity_stream
from repro.models import MulticlassLogisticRegression
from repro.simulation import CrowdSimulator, SimulationConfig


@pytest.fixture(scope="module")
def device_streams():
    """Seven per-device streams of label-change-triggered samples."""
    return [
        make_activity_stream(45, np.random.default_rng(100 + d)) for d in range(7)
    ]


class TestFig3Pipeline:
    def test_seven_devices_learn_common_classifier(self, device_streams):
        test = make_activity_stream(200, np.random.default_rng(999))
        model = MulticlassLogisticRegression(64, NUM_ACTIVITIES)
        config = SimulationConfig(
            num_devices=7,
            batch_size=1,
            learning_rate_constant=1.0,
        )
        simulator = CrowdSimulator(model, device_streams, test, config, seed=0)
        trace = simulator.run()
        assert trace.total_samples_consumed == 7 * 45

        averaged = trace.time_averaged_error()
        assert averaged.shape[0] == 7 * 45
        # Fig. 3: the curve converges fast and ends well below chance (2/3).
        assert averaged[-1] < 0.55

    def test_different_learning_rates_converge_similarly(self, device_streams):
        """Fig. 3's observation: curves for very different c are similar."""
        test = make_activity_stream(100, np.random.default_rng(998))
        finals = []
        for c in (1e-4, 1e-2, 1e0):
            model = MulticlassLogisticRegression(64, NUM_ACTIVITIES)
            config = SimulationConfig(
                num_devices=7, batch_size=1, learning_rate_constant=c,
            )
            trace = CrowdSimulator(model, device_streams, test, config, seed=0).run()
            finals.append(trace.time_averaged_error()[-1])
        # All rates land in a similar band (no divergence anywhere).
        assert max(finals) - min(finals) < 0.35
        assert all(f < 0.67 for f in finals)
