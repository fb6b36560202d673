"""Device→shard routing for the multi-worker serving tier.

A :class:`ShardRouter` binds the one routing function,
``stable_device_hash(device_id) % num_shards``, to a fixed shard count.

The router is deliberately state-free: the front end, every worker, and
an offline reference computation each build their own router from
``num_shards`` alone and must agree on every device, which is why
routing is stable integer math
(:func:`~repro.core.sharding.stable_device_hash`) rather than anything
process-salted — and why it is not an option: a tier whose processes
could be launched with different routings would enroll devices on one
shard and route them to another.

Besides single-id routing, the router knows how to :meth:`split` an
ordered batch into per-shard groups (preserving each item's original
position) and :meth:`merge` per-shard answer lists back into the
original order — the two halves of forwarding one mixed check-in batch
through per-shard workers.

:class:`StaticEndpoints` is the tier's one shard→endpoint table.
"""

from __future__ import annotations

import threading
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.sharding import stable_device_hash
from repro.serve import wire
from repro.utils.exceptions import ReproError


class ShardRoutingError(ReproError):
    """Per-shard answers that do not line up with what was forwarded."""


class ShardRouter:
    """Map device ids onto ``num_shards`` workers.

    Parameters
    ----------
    num_shards:
        How many shards the tier runs (>= 1).

    Examples
    --------
    >>> router = ShardRouter(4)
    >>> router.shard_of(7) == router.shard_of(7)
    True
    >>> sorted({router.shard_of(m) for m in range(100)})
    [0, 1, 2, 3]
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    def shard_of(self, device_id: int) -> int:
        """The shard owning ``device_id``; any integer id maps into ``[0, N)``."""
        return stable_device_hash(device_id) % self.num_shards

    def split(
        self,
        items: Sequence[Any],
        device_id_of: Callable[[Any], int] = wire.device_id_of,
    ) -> Dict[int, List[Tuple[int, Any]]]:
        """Group an ordered batch by owning shard.

        Returns ``{shard: [(original_index, item), ...]}`` with each
        group in original order.  ``device_id_of`` extracts the routing
        key (default: the wire's own reader of the raw JSON payload form
        every check-in entry carries).
        """
        groups: Dict[int, List[Tuple[int, Any]]] = {}
        for index, item in enumerate(items):
            shard = self.shard_of(device_id_of(item))
            groups.setdefault(shard, []).append((index, item))
        return groups

    @staticmethod
    def merge(
        groups: Dict[int, List[Tuple[int, Any]]],
        answers: Dict[int, Sequence[Any]],
        total: int,
    ) -> List[Any]:
        """Reassemble per-shard answer lists into original batch order.

        ``answers[shard]`` must be positionally parallel to
        ``groups[shard]`` (one answer per forwarded item); any length
        mismatch raises rather than silently misattributing acks.
        """
        merged: List[Any] = [None] * total
        for shard, entries in groups.items():
            shard_answers = answers[shard]
            if len(shard_answers) != len(entries):
                raise ShardRoutingError(
                    f"shard {shard} answered {len(shard_answers)} entries "
                    f"for {len(entries)} forwarded items"
                )
            for (index, _), answer in zip(entries, shard_answers):
                merged[index] = answer
        return merged


class StaticEndpoints:
    """A lock-guarded (mutable) ``{shard: (url, epoch)}`` table.

    Anything with an ``endpoints() -> {shard: (url, epoch)}`` method can
    back a front end; :class:`~repro.shard.supervisor.ShardSupervisor`
    holds one and repoints it on failover, in-process tiers pass one
    directly.  Values may be bare URLs (epoch defaults to ``-1`` =
    unfenced).
    """

    def __init__(self, endpoints: Mapping[int, Union[str, Tuple[str, int]]]):
        self._lock = threading.Lock()
        self._endpoints: Dict[int, Tuple[str, int]] = {}
        for shard, entry in endpoints.items():
            url, epoch = (entry, -1) if isinstance(entry, str) else entry
            self.set(shard, url, epoch)

    def endpoints(self) -> Dict[int, Tuple[str, int]]:
        with self._lock:
            return dict(self._endpoints)

    def set(self, shard: int, url: Optional[str], epoch: int = -1) -> None:
        """Repoint (or with ``url=None`` unroute) one shard."""
        with self._lock:
            if url is None:
                self._endpoints.pop(int(shard), None)
            else:
                self._endpoints[int(shard)] = (str(url), int(epoch))


__all__ = ["ShardRouter", "ShardRoutingError", "StaticEndpoints"]
