"""Unit tests for :mod:`repro.gateway.topology` and the assignment registry."""

import numpy as np
import pytest

from repro.gateway import TwoTierTopology
from repro.registry import GATEWAY_ASSIGNMENTS
from repro.utils.exceptions import ConfigurationError


class TestAssignmentPolicies:
    @pytest.mark.parametrize("name", ["round_robin", "block", "hash"])
    def test_policies_cover_and_stay_in_range(self, name):
        topo = TwoTierTopology(num_gateways=4, assignment=name)
        mapping = topo.assign(37)
        assert mapping.shape == (37,)
        assert mapping.min() >= 0 and mapping.max() < 4
        # Deterministic: the same topology always resolves the same map.
        assert np.array_equal(mapping, topo.assign(37))

    def test_round_robin_interleaves(self):
        assert TwoTierTopology(num_gateways=3).assign(7).tolist() == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_block_is_contiguous(self):
        mapping = TwoTierTopology(num_gateways=2, assignment="block").assign(6)
        assert mapping.tolist() == [0, 0, 0, 1, 1, 1]

    def test_registry_lists_builtin_policies(self):
        for name in ("round_robin", "block", "hash"):
            assert name in GATEWAY_ASSIGNMENTS.names()

    def test_explicit_map(self):
        topo = TwoTierTopology(num_gateways=2, assignment=(1, 0, 1))
        assert topo.assign(3).tolist() == [1, 0, 1]

    def test_explicit_map_wrong_length_rejected(self):
        topo = TwoTierTopology(num_gateways=2, assignment=(0, 1))
        with pytest.raises(ConfigurationError, match="covers"):
            topo.assign(3)

    def test_explicit_map_out_of_range_rejected(self):
        topo = TwoTierTopology(num_gateways=2, assignment=(0, 2))
        with pytest.raises(ConfigurationError, match="outside"):
            topo.assign(2)

    def test_num_gateways_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TwoTierTopology(num_gateways=0)

