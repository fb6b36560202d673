"""Privacy accounting for device releases: one running tally per device.

A check-in (Routine 3) releases one sanitized gradient, one error count
and C label counts, all computed from the same minibatch.  The accountant
uses **basic composition**: within a check-in the levels add,
ε_g + ε_e + C·ε_yk, for every sample of that minibatch; across check-ins
it takes the *max*, not the sum.  The max is the paper's per-sample
guarantee, and it rests on one assumption: every sample is released in
exactly one minibatch, so the sensitivity of the whole release sequence
equals that of a single one (Appendix A/B: "the sensitivity of multiple
minibatches ... is the same as the sensitivity of a single one").

Keeping that assumption is the caller's job; the accountant cannot see
which samples a release contained.  ``SimulationConfig.num_passes > 1``
breaks it: each pass re-releases every sample.  Ten devices at ε = 1,
b = 1 report ``per_sample_epsilon`` 1.0 at 1, 3 and 5 passes while
device 0's ``total_epsilon`` reads 20, 60 and 100; under basic
composition a sample's true spend is the reported figure times the
number of passes.

The tally is three numbers:

* ``per_sample_epsilon`` — the max over check-ins of one check-in's ε;
* ``total_epsilon`` — the naive sequential-composition sum over
  check-ins, reported for comparison with composition-based analyses;
* ``num_releases`` — mechanism releases charged (C + 2 per check-in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple


def checkin_sums(releases: Iterable[Tuple[float, int]]) -> Tuple[float, int]:
    """The (ε, release count) that one check-in charges.

    ``releases`` are ``(ε, count)`` pairs in release order.  A level sums
    by ``count`` repeated additions, left to right, not ``ε * count``, and
    ε = ∞ (no noise) adds nothing.

    >>> checkin_sums([(0.5, 1), (0.25, 1), (0.125, 2)])
    (1.0, 4)
    >>> checkin_sums([(math.inf, 1), (math.inf, 1), (math.inf, 3)])
    (0.0, 5)
    """
    epsilon = 0.0
    total = 0
    for level, count in releases:
        if not math.isinf(level):
            for _ in range(count):
                epsilon += level
        total += count
    return epsilon, total


@dataclass(frozen=True)
class PrivacySpend:
    """Cumulative spend under both accounting views."""

    per_sample_epsilon: float
    total_epsilon: float
    num_releases: int


class PrivacyAccountant:
    """One device's running spend; :meth:`charge_checkin` is O(1).

    Examples
    --------
    >>> acct = PrivacyAccountant()
    >>> acct.charge_checkin(checkin_sums([(0.5, 1), (0.25, 1), (0.125, 2)]))
    >>> acct.charge_checkin((0.5, 4))
    >>> acct.spend()
    PrivacySpend(per_sample_epsilon=1.0, total_epsilon=1.5, num_releases=8)
    """

    __slots__ = ("_per_sample_epsilon", "_total_epsilon", "_num_releases")

    def __init__(self):
        self._per_sample_epsilon = 0.0
        self._total_epsilon = 0.0
        self._num_releases = 0

    def charge_checkin(self, sums: Tuple[float, int]) -> None:
        """Charge one check-in's :func:`checkin_sums`."""
        epsilon, count = sums
        self._per_sample_epsilon = max(self._per_sample_epsilon, epsilon)
        self._total_epsilon += epsilon
        self._num_releases += count

    def spend(self) -> PrivacySpend:
        """Return the cumulative spend under both accounting views."""
        return PrivacySpend(
            self._per_sample_epsilon, self._total_epsilon, self._num_releases
        )
