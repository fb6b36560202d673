"""Privacy accounting for device releases.

Crowd-ML's guarantee is *per-sample*: because every sample participates in
exactly one minibatch, the sensitivity of the whole sequence of releases
equals the sensitivity of a single release (Appendix A/B: "the sensitivity
of multiple minibatches ... is the same as the sensitivity of a single
one").  The accountant therefore tracks two views:

* ``per_sample_epsilon`` — the guarantee the paper states, i.e. the maximum
  over samples of the ε consumed by the (single) minibatch containing it;
* ``total_epsilon`` — the naive sequential-composition sum over releases,
  reported for comparison with composition-based analyses.

It also enforces an optional cap on the per-sample ε, raising
:class:`~repro.utils.exceptions.PrivacyBudgetExceededError` before a release
that would exceed it.

The ledger is run-length encoded: consecutive identical records (a
check-in's C label-count releases, or repeated check-ins with the same
calibration) collapse into a single ``(record, count)`` run, so charging a
check-in grows the ledger by O(distinct records) — typically 3 — rather
than O(C).  Callers can hand the accountant pre-aggregated
:class:`~repro.privacy.mechanism.AggregatedRelease` groups for an O(1)
charge regardless of the number of classes; the expanded view is still
available through :attr:`PrivacyAccountant.records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.privacy.mechanism import AggregatedRelease, ReleaseRecord
from repro.utils.exceptions import PrivacyBudgetExceededError

#: What :meth:`PrivacyAccountant.charge_checkin` accepts: plain records,
#: run-length groups, or a mix of both.
ReleaseLike = Union[ReleaseRecord, AggregatedRelease]


def aggregate_releases(
    records: Sequence[ReleaseLike],
) -> Tuple[AggregatedRelease, ...]:
    """Run-length encode a release sequence by (consecutive) equality.

    ``(grad, err, label, label, ..., label)`` becomes three groups
    regardless of the number of classes.  Already-aggregated entries pass
    through (merging with equal neighbours).

    >>> rec = ReleaseRecord(epsilon=0.1)
    >>> [g.count for g in aggregate_releases([rec, rec, rec])]
    [3]
    """
    groups: List[List] = []
    for entry in records:
        if isinstance(entry, AggregatedRelease):
            record, count = entry.record, entry.count
        else:
            record, count = entry, 1
        if groups and (groups[-1][0] is record or groups[-1][0] == record):
            groups[-1][1] += count
        else:
            groups.append([record, count])
    return tuple(AggregatedRelease(record, count) for record, count in groups)


def checkin_sums(records: Sequence[ReleaseLike]) -> Tuple[float, float, int]:
    """The (ε, δ, release count) that one check-in of ``records`` charges.

    A group of ``count`` records sums by repeated addition, not
    ``epsilon * count``: that preserves the exact left-to-right IEEE-754
    sum of the expanded list.
    """
    checkin_epsilon = 0.0
    checkin_delta = 0.0
    total = 0
    for entry in records:
        if type(entry) is AggregatedRelease:
            record, count = entry.record, entry.count
        else:
            record, count = entry, 1
        epsilon = record.epsilon
        if not math.isinf(epsilon):
            for _ in range(count):
                checkin_epsilon += epsilon
        if record.delta != 0.0:
            for _ in range(count):
                checkin_delta += record.delta
        total += count
    return checkin_epsilon, checkin_delta, total


@dataclass(frozen=True)
class PrivacySpend:
    """Aggregate ε/δ consumed so far, under both accounting views."""

    per_sample_epsilon: float
    total_epsilon: float
    total_delta: float
    num_releases: int


class PrivacyAccountant:
    """Tracks sanitized releases and enforces a per-sample ε cap.

    Parameters
    ----------
    per_sample_cap:
        Maximum allowed per-sample ε; ``None`` (default) disables the cap.

    Examples
    --------
    >>> from repro.privacy.mechanism import ReleaseRecord
    >>> acct = PrivacyAccountant(per_sample_cap=1.0)
    >>> acct.charge_checkin([ReleaseRecord(epsilon=0.5, mechanism="laplace")])
    >>> acct.spend().per_sample_epsilon
    0.5
    """

    def __init__(self, per_sample_cap: Optional[float] = None):
        if per_sample_cap is not None and per_sample_cap <= 0:
            raise ValueError(f"per_sample_cap must be positive, got {per_sample_cap!r}")
        self._per_sample_cap = per_sample_cap
        # Run-length ledger: mutable [record, count] runs in charge order.
        self._runs: List[List] = []
        self._num_records = 0
        self._per_sample_epsilon = 0.0
        self._total_epsilon = 0.0
        self._total_delta = 0.0

    @property
    def per_sample_cap(self) -> Optional[float]:
        """The enforced per-sample ε cap, or ``None``."""
        return self._per_sample_cap

    def charge_checkin(
        self, records: Iterable[ReleaseLike], sums: Optional[Tuple[float, float, int]] = None
    ) -> None:
        """Account for one check-in consisting of several mechanism releases.

        All releases in one check-in touch the *same* minibatch, so their
        epsilons add for the samples in that minibatch; across check-ins the
        per-sample guarantee is the max, not the sum.

        ``records`` may contain plain :class:`ReleaseRecord`\\ s and/or
        :class:`~repro.privacy.mechanism.AggregatedRelease` run-length
        groups; a group of ``count`` records is charged exactly as if the
        record appeared ``count`` times in sequence (bit-identical to the
        expanded form, see :func:`checkin_sums`).  ``sums`` is
        ``checkin_sums(records)`` for a caller that already holds it: a
        device's sanitizer calibration computes it once for the whole crowd.
        """
        if not isinstance(records, (list, tuple)):
            records = tuple(records)
        checkin_epsilon, checkin_delta, total = sums or checkin_sums(records)
        candidate = max(self._per_sample_epsilon, checkin_epsilon)
        if self._per_sample_cap is not None and candidate > self._per_sample_cap + 1e-12:
            raise PrivacyBudgetExceededError(
                spent=self._per_sample_epsilon,
                cap=self._per_sample_cap,
                requested=checkin_epsilon,
            )
        runs = self._runs
        for entry in records:
            if type(entry) is AggregatedRelease:
                record, count = entry.record, entry.count
            else:
                record, count = entry, 1
            if runs:
                last = runs[-1]
                last_record = last[0]
                # Identity first (a crowd's calibration records repeat
                # across check-ins), then a cheap ε guard before the full
                # dataclass comparison — the common case is "different".
                if last_record is record or (
                    last_record.epsilon == record.epsilon
                    and last_record == record
                ):
                    last[1] += count
                    continue
            runs.append([record, count])
        self._num_records += total
        self._per_sample_epsilon = candidate
        self._total_epsilon += checkin_epsilon
        self._total_delta += checkin_delta

    def spend(self) -> PrivacySpend:
        """Return the cumulative spend under both accounting views."""
        return PrivacySpend(
            per_sample_epsilon=self._per_sample_epsilon,
            total_epsilon=self._total_epsilon,
            total_delta=self._total_delta,
            num_releases=self._num_records,
        )

    @property
    def records(self) -> List[ReleaseRecord]:
        """All release records charged so far, expanded, in charge order."""
        expanded: List[ReleaseRecord] = []
        for record, count in self._runs:
            expanded.extend([record] * count)
        return expanded

    @property
    def record_runs(self) -> List[Tuple[ReleaseRecord, int]]:
        """The run-length-encoded ledger (copy)."""
        return [(record, count) for record, count in self._runs]

    def reset(self) -> None:
        """Forget all history (e.g. between independent trials)."""
        self._runs.clear()
        self._num_records = 0
        self._per_sample_epsilon = 0.0
        self._total_epsilon = 0.0
        self._total_delta = 0.0

    def state_dict(self) -> Dict[str, Any]:
        """Serializable ledger state.

        Epsilons may be ``inf`` (the no-noise setting); JSON's
        ``Infinity`` literal round-trips it, and finite floats survive
        via ``repr`` exactly, so a restored ledger reports the identical
        spend bit for bit.
        """
        return {
            "per_sample_cap": self._per_sample_cap,
            "per_sample_epsilon": self._per_sample_epsilon,
            "total_epsilon": self._total_epsilon,
            "total_delta": self._total_delta,
            "num_records": self._num_records,
            "runs": [
                {
                    "epsilon": record.epsilon,
                    "delta": record.delta,
                    "mechanism": record.mechanism,
                    "sensitivity": record.sensitivity,
                    "count": count,
                }
                for record, count in self._runs
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PrivacyAccountant":
        """Inverse of :meth:`state_dict`."""
        cap = state["per_sample_cap"]
        accountant = cls(per_sample_cap=None if cap is None else float(cap))
        accountant._per_sample_epsilon = float(state["per_sample_epsilon"])
        accountant._total_epsilon = float(state["total_epsilon"])
        accountant._total_delta = float(state["total_delta"])
        accountant._num_records = int(state["num_records"])
        accountant._runs = [
            [
                ReleaseRecord(
                    epsilon=float(entry["epsilon"]),
                    delta=float(entry["delta"]),
                    mechanism=str(entry["mechanism"]),
                    sensitivity=float(entry["sensitivity"]),
                ),
                int(entry["count"]),
            ]
            for entry in state["runs"]
        ]
        return accountant
