"""Communication-delay models (Section IV-B3 and footnote 7).

The evaluation samples each of the three delays — request (τ_req),
check-out (τ_co), and check-in (τ_ci) — uniformly from ``[0, τ]`` per
communication instance.  Footnote 7 notes any other distribution works too,
so :class:`DelayModel` is an interface with uniform, constant, exponential,
and shifted-lognormal implementations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


class DelayModel(ABC):
    """Distribution of a one-way message delay."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one non-negative delay."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected delay (for analysis and reporting)."""

    @property
    def is_zero(self) -> bool:
        """True when every sample is exactly 0.0 **and** draws no RNG.

        Zero-delay links are what make a fused synchronous round
        equivalent to event-driven delivery, so the default is
        conservative: only models that guarantee both properties
        override this.
        """
        return False


class ZeroDelay(DelayModel):
    """No delay — the τ = 0 arms of Figs. 4-5."""

    def sample(self, rng: np.random.Generator) -> float:
        return 0.0

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def is_zero(self) -> bool:
        return True


class ConstantDelay(DelayModel):
    """Deterministic delay of fixed size."""

    def __init__(self, delay: float):
        self._delay = check_non_negative(delay, "delay")

    def sample(self, rng: np.random.Generator) -> float:
        return self._delay

    @property
    def mean(self) -> float:
        return self._delay

    @property
    def is_zero(self) -> bool:
        return self._delay == 0.0


class UniformDelay(DelayModel):
    """Uniform on ``[0, maximum]`` — the paper's default (Section V-C).

    >>> import numpy as np
    >>> model = UniformDelay(2.0)
    >>> 0.0 <= model.sample(np.random.default_rng(0)) <= 2.0
    True
    """

    def __init__(self, maximum: float):
        self._maximum = check_non_negative(maximum, "maximum")

    @property
    def maximum(self) -> float:
        """The maximum delay τ."""
        return self._maximum

    def sample(self, rng: np.random.Generator) -> float:
        if self._maximum == 0.0:
            return 0.0
        # NumPy's uniform(low, high) computes low + (high - low)·random():
        # at low = 0 that is τ·random() — the same double from the same
        # stream position, without uniform's argument broadcasting.
        return self._maximum * rng.random()

    @property
    def mean(self) -> float:
        return self._maximum / 2.0

    @property
    def is_zero(self) -> bool:
        # sample() short-circuits before touching the RNG at τ = 0.
        return self._maximum == 0.0


class ExponentialDelay(DelayModel):
    """Exponential delay with given mean (footnote 7 alternative)."""

    def __init__(self, mean: float):
        self._mean = check_positive(mean, "mean")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    @property
    def mean(self) -> float:
        return self._mean


class LogNormalDelay(DelayModel):
    """Shifted lognormal delay: heavy-tailed mobile-network-like latency.

    Parameterized by the median and a shape sigma; ``offset`` adds a
    deterministic propagation floor.
    """

    def __init__(self, median: float, sigma: float = 0.5, offset: float = 0.0):
        self._median = check_positive(median, "median")
        self._sigma = check_positive(sigma, "sigma")
        self._offset = check_non_negative(offset, "offset")

    def sample(self, rng: np.random.Generator) -> float:
        return self._offset + float(
            rng.lognormal(mean=np.log(self._median), sigma=self._sigma)
        )

    @property
    def mean(self) -> float:
        return self._offset + self._median * float(np.exp(self._sigma**2 / 2.0))


@dataclass(frozen=True)
class LinkDelays:
    """The three delay legs of one check-out/check-in round trip.

    Attributes map to Section IV-B3's τ_req, τ_co, τ_ci.
    """

    request: DelayModel
    checkout: DelayModel
    checkin: DelayModel

    @classmethod
    def uniform(cls, tau: float) -> "LinkDelays":
        """The paper's setting τ = τ_req = τ_co = τ_ci, each ~ U[0, τ]."""
        return cls(UniformDelay(tau), UniformDelay(tau), UniformDelay(tau))

    @classmethod
    def zero(cls) -> "LinkDelays":
        """No delays anywhere (Figs. 4-5)."""
        return cls(ZeroDelay(), ZeroDelay(), ZeroDelay())

    @property
    def mean_round_trip(self) -> float:
        """Expected τ_req + τ_co + τ_ci."""
        return self.request.mean + self.checkout.mean + self.checkin.mean

    @property
    def is_zero(self) -> bool:
        """True when all three legs are exactly zero (RNG-free)."""
        return self.request.is_zero and self.checkout.is_zero and self.checkin.is_zero
