"""Shard math: stable device→shard hashing and cross-shard merges.

The sharded serving tier (:mod:`repro.shard`) partitions devices across
N worker processes, each hosting an independent
:class:`~repro.core.server_core.ServerCore`.  This module holds the
transport-free arithmetic that tier is built on:

* :func:`stable_device_hash` — the deterministic 32-bit scramble
  :class:`~repro.shard.routing.ShardRouter` routes by.  Stable across
  processes and Python versions (no ``PYTHONHASHSEED`` dependence), so a
  respawned worker, a restarted front end, and an offline reference
  computation all agree on which shard owns a device.
* :func:`merge_status_counts` — combine the ``/v1/status`` counter
  fields the front end aggregates across workers into one crowd-wide
  view (plain sums; shards own disjoint device sets, so nothing is
  counted twice).

Shards are *independent* Crowd-ML tasks over disjoint device subsets:
each worker runs its own iteration counter and parameter vector, so the
merged ``iteration`` is a sum (total applied updates across the crowd)
and a merged parameter vector is deliberately **not** defined here —
per-shard parameters are the unit of bit-exactness the failover tests
gate on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

from repro.utils.exceptions import ReproError

#: Knuth's multiplicative constant (2^32 / phi), shared with the
#: ``hash`` gateway-assignment policy: deterministic, cheap, and
#: scrambles sequential device ids across shards.
_KNUTH = 2654435761


class ShardMergeError(ReproError):
    """Per-shard statuses that cannot be merged (none, or mixed shapes)."""


def stable_device_hash(device_id: int) -> int:
    """Deterministic 32-bit scramble of a device id.

    Pure integer math — identical in every process, interpreter, and
    run, unlike :func:`hash` (which is salted per process for strings
    and must never decide routing).
    """
    return (int(device_id) * _KNUTH) & 0xFFFFFFFF


#: ``/v1/status`` counter fields that sum across shards.
_SUMMED_STATUS_FIELDS = (
    "iteration",
    "checkouts_served",
    "rejected_messages",
    "registered_devices",
    "duplicates_suppressed",
)


def merge_status_counts(statuses: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-shard status counter dicts for ``/v1/status``.

    Input dicts carry the wire status fields (``iteration``,
    ``checkouts_served``, ``rejected_messages``, ``registered_devices``,
    ``duplicates_suppressed``, ``stopped``, ``stop_reason``,
    ``num_parameters``).  Counters sum; the merged task counts as
    ``stopped`` only when **every** shard has stopped (a crowd with one
    live shard still accepts that shard's traffic), and the reported
    reason is the first stopped shard's.  ``num_parameters`` must agree
    across shards (one model shape per deployment) or the merge raises.
    """
    statuses = list(statuses)
    if not statuses:
        raise ShardMergeError("cannot merge an empty status list")
    merged: Dict[str, Any] = {field: 0 for field in _SUMMED_STATUS_FIELDS}
    num_parameters = None
    stopped_reason = None
    all_stopped = True
    for status in statuses:
        for field in _SUMMED_STATUS_FIELDS:
            merged[field] += int(status[field])
        shape = int(status["num_parameters"])
        if num_parameters is None:
            num_parameters = shape
        elif shape != num_parameters:
            raise ShardMergeError(
                f"shards disagree on num_parameters "
                f"({num_parameters} vs {shape}); one model shape per tier"
            )
        if bool(status["stopped"]):
            if stopped_reason is None:
                stopped_reason = str(status["stop_reason"])
        else:
            all_stopped = False
    merged["num_parameters"] = int(num_parameters)
    merged["stopped"] = all_stopped
    merged["stop_reason"] = (
        stopped_reason if all_stopped and stopped_reason is not None else "running"
    )
    return merged


__all__ = [
    "ShardMergeError",
    "merge_status_counts",
    "stable_device_hash",
]
