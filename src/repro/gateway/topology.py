"""Two-tier topology: which gateway each device talks through.

The paper's deployment sketch has devices reaching the server through
intermediaries.  A :class:`TwoTierTopology` declares G gateways and
assigns each of the M devices to exactly one — a static map, or a named
policy from :data:`repro.registry.GATEWAY_ASSIGNMENTS` (``round_robin``,
``block``, ``hash``).  Each gateway is then a live
:class:`~repro.gateway.edge.EdgeGateway` in front of its devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.registry import GATEWAY_ASSIGNMENTS
from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class TwoTierTopology:
    """G gateways plus the device→gateway assignment.

    Attributes
    ----------
    num_gateways:
        G.
    assignment:
        Either a named policy from
        :data:`repro.registry.GATEWAY_ASSIGNMENTS` (``"round_robin"``,
        ``"block"``, ``"hash"``) or an explicit static map — a sequence
        of gateway indices, one per device.

    Examples
    --------
    >>> topo = TwoTierTopology(num_gateways=3)
    >>> topo.assign(7).tolist()
    [0, 1, 2, 0, 1, 2, 0]
    >>> TwoTierTopology(num_gateways=2, assignment=(0, 0, 1)).assign(3).tolist()
    [0, 0, 1]
    """

    num_gateways: int
    assignment: Union[str, Tuple[int, ...]] = "round_robin"

    def __post_init__(self):
        if self.num_gateways < 1:
            raise ConfigurationError(
                f"num_gateways must be >= 1, got {self.num_gateways}"
            )
        if not isinstance(self.assignment, str):
            object.__setattr__(
                self, "assignment", tuple(int(g) for g in self.assignment)
            )

    def assign(self, num_devices: int) -> np.ndarray:
        """Resolve the device→gateway map for ``num_devices`` devices."""
        if isinstance(self.assignment, str):
            mapping = GATEWAY_ASSIGNMENTS.create(
                self.assignment,
                num_devices=num_devices,
                num_gateways=self.num_gateways,
            )
        else:
            mapping = self.assignment
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (num_devices,):
            raise ConfigurationError(
                f"gateway assignment covers {mapping.shape[0] if mapping.ndim == 1 else '?'} "
                f"devices, expected {num_devices}"
            )
        if mapping.size and (mapping.min() < 0 or mapping.max() >= self.num_gateways):
            raise ConfigurationError(
                f"gateway assignment references gateways outside "
                f"[0, {self.num_gateways})"
            )
        return mapping
