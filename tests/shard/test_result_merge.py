"""A split batch's acks are merged from the shards' answer heads.

The oracle is the decode-then-encode path: every answered shard's body
through ``decode_checkin_result`` into ``CheckinAck`` objects, merged
into batch order and written by ``encode_checkin_result``.  The front
end's ``merge_checkin_results`` reads the same bodies with
``checkin_result_head`` and must write the same bytes.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.stopping import StopDecision, StopReason
from repro.serve import wire
from repro.shard import ShardRouter
from repro.shard.frontend import merge_checkin_results


def oracle(groups, answers, total):
    """What one server holding every device answers, built from decoded
    ``CheckinAck`` objects; ``answers[shard]`` is a body or ``None`` (409)."""
    decoded = {
        shard: None if raw is None else wire.decode_checkin_result(raw)
        for shard, raw in sorted(answers.items())
    }
    answered = [result for result in decoded.values() if result is not None]
    acks = {
        shard: [None] * len(groups[shard]) if result is None else result.acks
        for shard, result in decoded.items()
    }
    stops = [result.stop_decision for result in answered if result.stopped]
    return wire.encode_checkin_result(
        ShardRouter.merge(groups, acks, total),
        sum(result.server_iteration for result in answered),
        stops[0] if len(stops) == len(answered) else StopDecision.running(),
    )


@st.composite
def ack_entries(draw, device_id):
    """One ack as a worker may write it — also with the optional keys
    spelled out at their defaults, which the re-encode drops."""
    entry = {
        "type": "checkin_ack",
        "device_id": device_id,
        "server_iteration": draw(st.integers(0, 10**6)),
    }
    seq = draw(st.integers(-1, 50))
    if seq >= 0 or draw(st.booleans()):
        entry["checkin_seq"] = seq
    duplicate = draw(st.booleans())
    if duplicate or draw(st.booleans()):
        entry["duplicate"] = duplicate
    return entry


@st.composite
def split_batches(draw):
    """``(groups, answers, total)``: a batch over 2-4 shards, each shard
    answering a ``checkin_result`` body or refusing (``None``)."""
    num_shards = draw(st.integers(2, 4))
    owners = draw(st.lists(st.integers(0, num_shards - 1), min_size=2, max_size=12))
    if len(set(owners)) < 2:
        owners.append((owners[0] + 1) % num_shards)
    groups = {}
    for index, shard in enumerate(owners):
        groups.setdefault(shard, []).append((index, {"device_id": 100 + index}))
    refused = {shard for shard in groups if draw(st.booleans())}
    if refused == set(groups):
        refused.discard(min(groups))  # one shard answered, or the tier is a 409
    answers = {}
    for shard, entries in groups.items():
        if shard in refused:
            answers[shard] = None
            continue
        reason = draw(st.sampled_from(list(StopReason)))
        body = {
            "acks": [
                draw(st.none() | ack_entries(entry["device_id"]))
                for _, entry in entries
            ],
            "server_iteration": draw(st.integers(0, 10**6)),
            "stopped": reason is not StopReason.RUNNING,
            "stop_reason": reason.value,
        }
        epoch = draw(st.integers(-1, 5))
        if epoch >= 0:
            body["epoch"] = epoch
        answers[shard] = wire.encode_envelope("checkin_result", body).encode("utf-8")
    return groups, answers, len(owners)


class TestHeadLevelMerge:
    @settings(max_examples=300)
    @given(split_batches())
    def test_merged_body_is_the_decode_encode_bytes(self, batch):
        groups, answers, total = batch
        heads = {
            shard: None if raw is None else wire.checkin_result_head(raw)
            for shard, raw in sorted(answers.items())
        }
        assert merge_checkin_results(groups, heads, total) == oracle(
            groups, answers, total
        )

    def test_batch_crossing_the_last_stop_reads_stopped(self):
        groups = {0: [(0, {})], 1: [(1, {})], 2: [(2, {})]}
        answers = {
            0: wire.encode_checkin_result(
                [(7, 3, 0, False)], 3, StopDecision(True, StopReason.MAX_ITERATIONS), 2
            ).encode(),
            1: None,
            2: wire.encode_checkin_result(
                [None], 5, StopDecision(True, StopReason.TARGET_ERROR), 0
            ).encode(),
        }
        heads = {shard: raw and wire.checkin_result_head(raw)
                 for shard, raw in answers.items()}
        merged = merge_checkin_results(groups, heads, 3)
        assert merged == oracle(groups, answers, 3)
        body = json.loads(merged)["body"]
        assert body == {
            "acks": [
                {"type": "checkin_ack", "device_id": 7, "server_iteration": 3,
                 "checkin_seq": 0},
                None,
                None,
            ],
            "server_iteration": 8,
            "stopped": True,
            "stop_reason": "max_iterations",
        }
