"""Unit tests for :class:`repro.gateway.aggregator.GatewayAggregator`.

The aggregator is the engine of the gateway tier: these tests pin the
size trigger, the custody contract on upstream failure (the batched
Remark 1) and the ack-routing callbacks — against a fake upstream, no
HTTP involved.
"""

import numpy as np
import pytest

from repro.core.protocol import CheckinAck, CheckinMessage
from repro.gateway import GatewayAggregator
from repro.utils.exceptions import ConfigurationError


def _msg(device_id=0):
    return CheckinMessage(
        device_id, "t", np.zeros(2), 1, 0.0, np.zeros(2, dtype=np.int64), 0
    )


def _ack(device_id=0):
    return CheckinAck(device_id=device_id, server_iteration=1)


class CollectingUpstream:
    """Synchronous upstream recording batches; acks one per message."""

    def __init__(self):
        self.batches = []

    def __call__(self, messages):
        self.batches.append(list(messages))
        return [_ack(m.device_id) for m in messages]


class TestSizeFlush:
    def test_flushes_exactly_at_threshold(self):
        upstream = CollectingUpstream()
        agg = GatewayAggregator(upstream, flush_size=3)
        assert agg.add(_msg(0)) is None
        assert agg.add(_msg(1)) is None
        acks = agg.add(_msg(2))
        assert [a.device_id for a in acks] == [0, 1, 2]
        assert [len(b) for b in upstream.batches] == [3]
        assert agg.pending == 0
        assert agg.stats.size_flushes == 1
        assert agg.stats.checkins_added == 3

    def test_acks_route_to_per_message_callbacks_in_order(self):
        agg = GatewayAggregator(CollectingUpstream(), flush_size=2)
        seen = []
        agg.add(_msg(7), on_ack=lambda a: seen.append(("first", a.device_id)))
        agg.add(_msg(8), on_ack=lambda a: seen.append(("second", a.device_id)))
        assert seen == [("first", 7), ("second", 8)]

    def test_flush_on_empty_buffer_is_a_noop(self):
        upstream = CollectingUpstream()
        agg = GatewayAggregator(upstream, flush_size=4)
        assert agg.flush() == []
        assert upstream.batches == []
        assert agg.stats.flushes == 0


class TestUpstreamFailure:
    def test_failed_flush_keeps_custody_and_order(self):
        """The batched Remark 1: a raising upstream loses nothing, and the
        retried batch leads anything added in the meantime."""
        calls = {"n": 0}
        delivered = []

        def flaky(messages):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("synthetic blip")
            delivered.extend(m.device_id for m in messages)
            return [_ack(m.device_id) for m in messages]

        agg = GatewayAggregator(flaky, flush_size=2)
        seen = []
        agg.add(_msg(0), on_ack=lambda a: seen.append(a.device_id))
        with pytest.raises(OSError):
            agg.add(_msg(1), on_ack=lambda a: seen.append(a.device_id))
        assert agg.pending == 2  # both messages back in the buffer
        assert agg.stats.flushes == 0
        agg.add(_msg(2), on_ack=lambda a: seen.append(a.device_id))
        assert delivered == [0, 1, 2]  # original order, new add behind
        assert seen == [0, 1, 2]  # callbacks survived the failed flush


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flush_size": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GatewayAggregator(CollectingUpstream(), **kwargs)

    def test_mean_flush_size(self):
        agg = GatewayAggregator(CollectingUpstream(), flush_size=2)
        assert agg.stats.mean_flush_size == 0.0
        for _ in range(4):
            agg.add(_msg())
        assert agg.stats.mean_flush_size == 2.0
