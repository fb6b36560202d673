"""Common interface for differential-privacy mechanisms.

A mechanism is a randomized map from a true value to a sanitized value.  All
mechanisms in this package share the :class:`Mechanism` interface so the
device runtime can treat gradient sanitization, count sanitization, and the
centralized baseline's input perturbation uniformly.

An ``epsilon`` of ``math.inf`` (equivalently, the paper's ε⁻¹ = 0 setting)
is accepted everywhere and means *no noise*: mechanisms become the identity,
which is how the non-private arms of the experiments are run through the
identical code path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.utils.exceptions import ConfigurationError


def validate_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """Validate a privacy level: positive, possibly infinite.

    ``math.inf`` encodes the paper's "ε⁻¹ = 0" (non-private) arm.
    """
    epsilon = float(epsilon)
    if math.isnan(epsilon) or epsilon <= 0:
        raise ConfigurationError(f"{name} must be positive (inf = no privacy), got {epsilon!r}")
    return epsilon


class Mechanism(ABC):
    """A randomized sanitizer with a fixed per-release privacy level."""

    def __init__(self, epsilon: float, rng: Optional[np.random.Generator] = None):
        self._epsilon = validate_epsilon(epsilon)
        # None until first used: a crowd-shared calibration validates its
        # levels through these constructors and never draws from them.
        self._rng = rng
        self._is_identity = math.isinf(self._epsilon)

    @property
    def epsilon(self) -> float:
        """Per-release privacy level ε (``inf`` means the identity map)."""
        return self._epsilon

    @property
    def is_identity(self) -> bool:
        """True when this mechanism adds no noise (ε = ∞)."""
        return self._is_identity

    @property
    def rng(self) -> np.random.Generator:
        """The random generator used to draw noise (a fresh
        non-deterministic one when none was given)."""
        if self._rng is None:
            self._rng = np.random.default_rng()
        return self._rng

    @abstractmethod
    def release(self, value):
        """Return a sanitized copy of ``value``."""
