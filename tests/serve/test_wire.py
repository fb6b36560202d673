"""Unit tests for the versioned wire schema (repro.serve.wire)."""

import json

import numpy as np
import pytest

from repro.core.protocol import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.core.stopping import StopDecision, StopReason
from repro.serve import wire


V = wire.PROTOCOL_VERSION


def head_and_tail(raw):
    """A body's JSON head (parsed) and its hex tail."""
    head, _, tail = raw.partition("\n")
    return json.loads(head), tail


def make_checkin(device_id=3, dim=4):
    return CheckinMessage(
        device_id=device_id,
        token="tok",
        gradient=np.arange(dim, dtype=np.float64) / 7.0,
        num_samples=5,
        noisy_error_count=2,
        noisy_label_counts=np.array([2, 3], dtype=np.int64),
        checkout_iteration=11,
    )


def checkin_entry(message):
    """A message's entry in the head of its ``checkin_batch`` body."""
    return head_and_tail(wire.encode_checkin_batch([message]))[0]["body"]["messages"][0]


class TestEnvelope:
    def test_round_trip(self):
        raw = wire.encode_envelope("status", {"x": 1})
        kind, body = wire.parse_envelope(raw)
        assert kind == "status" and body == {"x": 1}

    def test_version_stamp_present(self):
        payload = json.loads(wire.encode_envelope("k", {}))
        assert payload["protocol"] == wire.PROTOCOL_VERSION

    @pytest.mark.parametrize(
        "raw",
        [
            "",
            "not json",
            "[1,2,3]",
            '"a string"',
            f'{{"protocol": {V}, "body": {{}}}}',             # no kind
            f'{{"protocol": {V}, "kind": "x"}}',              # no body
            f'{{"protocol": {V}, "kind": 7, "body": {{}}}}',   # non-string kind
            f'{{"protocol": {V}, "kind": "x", "body": []}}',  # non-object body
            f'{{"protocol": {V},\n"kind": "x", "body": {{}}}}',  # head split
            b"\xff\xfe garbage bytes",
        ],
    )
    def test_malformed_envelopes(self, raw):
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_envelope(raw)
        assert excinfo.value.code == wire.ErrorCode.MALFORMED
        assert excinfo.value.http_status == 400

    @pytest.mark.parametrize(
        "version",
        # 3.0 satisfies == 3 but is not a valid stamp: the check is
        # strict on type, not just value.
        [0, 1, -1, "2", None, 1.5, 2.0, True, str(V), float(V)],
    )
    def test_version_mismatch(self, version):
        raw = json.dumps({"protocol": version, "kind": "status", "body": {}})
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_envelope(raw)
        assert excinfo.value.code == wire.ErrorCode.VERSION_MISMATCH
        assert excinfo.value.http_status == 426

    def test_missing_version_stamp_is_version_mismatch(self):
        # An envelope with no stamp at all is an unknown (ancient)
        # protocol, not merely malformed: the client should upgrade.
        raw = '{"kind": "status", "body": {}}'
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_envelope(raw)
        assert excinfo.value.code == wire.ErrorCode.VERSION_MISMATCH
        assert excinfo.value.http_status == 426

    def test_unexpected_kind(self):
        raw = wire.encode_envelope("status", {})
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_envelope(raw, "checkout_request")
        assert excinfo.value.code == wire.ErrorCode.MALFORMED


class TestMessageEnvelopes:
    def test_checkout_request_round_trip(self):
        request = CheckoutRequest(device_id=4, token="t", request_time=1.25)
        assert wire.decode_checkout_request(
            wire.encode_checkout_request(request)) == request

    def test_checkout_response_round_trip_is_bit_exact(self):
        parameters = np.random.default_rng(0).normal(size=17)
        response = CheckoutResponse(
            device_id=1, parameters=parameters, server_iteration=9,
            issued_time=0.5,
        )
        decoded = wire.decode_checkout_response(
            wire.encode_checkout_response(response))
        assert np.array_equal(decoded.parameters, parameters)
        assert decoded.parameters.dtype == np.float64
        assert decoded.server_iteration == 9

    def test_checkout_request_body_of_wrong_type(self):
        # A well-formed envelope whose body is a different message.
        raw = wire.encode_checkout_response(
            CheckoutResponse(0, np.zeros(2), 0, 0.0))
        payload, _ = head_and_tail(raw)
        payload["kind"] = "checkout_request"
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_checkout_request(json.dumps(payload))
        assert excinfo.value.code == wire.ErrorCode.MALFORMED

    def test_checkin_batch_round_trip(self):
        messages = [make_checkin(device_id=i) for i in range(3)]
        decoded = wire.decode_checkin_batch(wire.encode_checkin_batch(messages))
        assert len(decoded) == 3
        for original, copy in zip(messages, decoded):
            assert copy.device_id == original.device_id
            assert np.array_equal(copy.gradient, original.gradient)
            assert np.array_equal(
                copy.noisy_label_counts, original.noisy_label_counts)
            assert copy.checkout_iteration == original.checkout_iteration

    @pytest.mark.parametrize(
        "body",
        [
            {},                                  # no messages key
            {"messages": "nope"},                # not a list
            {"messages": []},                    # empty batch
            {"messages": [42]},                  # non-object entry
            {"messages": [{"type": "checkin"}]},  # missing fields
            {"messages": [{                      # gradient as a JSON list
                **checkin_entry(make_checkin()),
                "gradient": make_checkin().gradient.tolist(),
            }]},
        ],
    )
    def test_checkin_batch_malformed(self, body):
        raw = wire.encode_envelope("checkin_batch", body)
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_checkin_batch(raw)
        assert excinfo.value.code == wire.ErrorCode.MALFORMED

    def test_a_number_no_int_holds_is_malformed(self):
        # JSON's Infinity parses to a float that int() refuses with an
        # OverflowError, not a ValueError.
        head, tail = head_and_tail(wire.encode_checkin_batch([make_checkin()]))
        head["body"]["messages"][0]["num_samples"] = float("inf")
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_checkin_batch(json.dumps(head) + "\n" + tail)
        assert excinfo.value.code == wire.ErrorCode.MALFORMED

    def test_checkin_batch_size_cap(self):
        entry, tail = head_and_tail(wire.encode_checkin_batch([make_checkin()]))
        copies = wire.MAX_BATCH_MESSAGES + 1
        entry["body"]["messages"] = entry["body"]["messages"] * copies
        with pytest.raises(wire.WireError, match="limit"):
            wire.decode_checkin_batch(json.dumps(entry) + "\n" + tail * copies)

    def test_checkin_result_round_trip_with_rejections(self):
        acks = [CheckinAck(0, 5), None, CheckinAck(2, 6)]
        stop = StopDecision(True, StopReason.MAX_ITERATIONS)
        raw = wire.encode_checkin_result(acks, server_iteration=6, stop=stop)
        decoded = wire.decode_checkin_result(raw)
        assert decoded.acks == (CheckinAck(0, 5), None, CheckinAck(2, 6))
        assert decoded.server_iteration == 6
        assert decoded.stopped
        assert decoded.stop_decision == stop

    def test_checkin_result_unknown_stop_reason(self):
        raw = json.loads(wire.encode_checkin_result([], 0, StopDecision.running()))
        raw["body"]["stop_reason"] = "cosmic_rays"
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_checkin_result(json.dumps(raw))
        assert excinfo.value.code == wire.ErrorCode.MALFORMED


class TestBodyLayout:
    def test_vectors_leave_the_head_for_a_lowercase_hex_tail(self):
        messages = [make_checkin(device_id=1, dim=3), make_checkin(device_id=2, dim=2)]
        head, tail = head_and_tail(wire.encode_checkin_batch(messages))
        assert head["protocol"] == V
        assert [entry["gradient"] for entry in head["body"]["messages"]] == [3, 2]
        assert tail == "".join(m.gradient.astype("<f8").tobytes().hex() for m in messages)
        assert tail == tail.lower()

    def test_bodies_without_vectors_are_the_head_alone(self):
        for raw in (
            wire.encode_join_request(4),
            wire.encode_checkout_request(CheckoutRequest(4, "t", 0.5)),
            wire.encode_checkin_result([CheckinAck(4, 1)], 1, StopDecision.running()),
            wire.encode_error(wire.ErrorCode.STOPPED, "over"),
        ):
            assert "\n" not in raw
            json.loads(raw)

    def test_a_tail_on_a_vectorless_kind_is_malformed(self):
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_join_request(wire.encode_join_request(4) + "\n00")
        assert excinfo.value.code == wire.ErrorCode.MALFORMED

    def test_a_protocol_2_body_is_a_version_mismatch(self):
        raw = json.dumps({"protocol": 2, "kind": "checkout_response", "body": {
            "type": "checkout_response", "device_id": 0,
            "parameters": "AAAAAAAA8D8=", "server_iteration": 0, "issued_time": 0.0,
        }})
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_checkout_response(raw)
        assert excinfo.value.code == wire.ErrorCode.VERSION_MISMATCH

    def test_router_helpers_slice_the_tail_per_entry(self):
        messages = [make_checkin(device_id=d, dim=d + 1) for d in range(3)]
        raw = wire.encode_checkin_batch(messages)
        entries, tails = wire.checkin_batch_entries(raw.encode())
        assert [len(t) for t in tails] == [16, 32, 48]
        assert wire.encode_checkin_entries(entries, tails) == raw
        assert wire.encode_checkin_entries(entries[1:], tails[1:]) == (
            wire.encode_checkin_batch(messages[1:]))


def _status_again(raw):
    s = wire.decode_status(raw)
    return wire.encode_status(
        iteration=s.iteration, stop=s.stop_decision,
        checkouts_served=s.checkouts_served, rejected_messages=s.rejected_messages,
        registered_devices=s.registered_devices, num_parameters=s.num_parameters,
        duplicates_suppressed=s.duplicates_suppressed, parameters=s.parameters,
        epoch=s.epoch, uptime_seconds=s.uptime_seconds, pid=s.pid,
    )


def _result_again(raw):
    r = wire.decode_checkin_result(raw)
    return wire.encode_checkin_result(r.acks, r.server_iteration, r.stop_decision, r.epoch)


def _error_again(raw):
    error = wire.decode_error(raw)
    return wire.encode_error(error.code, str(error))


G = np.array([0.5, -2.0])
G_HEX = "000000000000e03f00000000000000c0"
HEAD = '{"protocol":3,"kind":'
#: One literal body per kind: ``(body, its encoder call, decode then
#: re-encode)``.  A change to any of these bytes is a protocol change.
GOLDEN = {
    "join_request": (
        HEAD + '"join_request","body":{"device_id":7}}',
        lambda: wire.encode_join_request(7),
        lambda raw: wire.encode_join_request(wire.decode_join_request(raw)),
    ),
    "join_response": (
        HEAD + '"join_response","body":{"device_id":7,"token":"tok"}}',
        lambda: wire.encode_join_response(7, "tok"),
        lambda raw: wire.encode_join_response(*wire.decode_join_response(raw)),
    ),
    "join_response_seq": (
        HEAD + '"join_response","body":{"device_id":7,"token":"tok","last_checkin_seq":4}}',
        lambda: wire.encode_join_response(7, "tok", 4),
        lambda raw: wire.encode_join_response(*wire.decode_join_response(raw)),
    ),
    "checkout_request": (
        HEAD + '"checkout_request","body":{"type":"checkout_request","device_id":7,'
        '"token":"tok","request_time":1.25}}',
        lambda: wire.encode_checkout_request(CheckoutRequest(7, "tok", 1.25)),
        lambda raw: wire.encode_checkout_request(wire.decode_checkout_request(raw)),
    ),
    "checkout_response": (
        HEAD + '"checkout_response","body":{"type":"checkout_response","device_id":7,'
        '"parameters":2,"server_iteration":3,"issued_time":1.5}}\n' + G_HEX,
        lambda: wire.encode_checkout_response(CheckoutResponse(7, G, 3, 1.5)),
        lambda raw: wire.encode_checkout_response(wire.decode_checkout_response(raw)),
    ),
    "checkout_response_inf": (
        HEAD + '"checkout_response","body":{"type":"checkout_response","device_id":7,'
        '"parameters":2,"server_iteration":3,"issued_time":Infinity}}\n' + G_HEX,
        lambda: wire.encode_checkout_response(CheckoutResponse(7, G, 3, float("inf"))),
        lambda raw: wire.encode_checkout_response(wire.decode_checkout_response(raw)),
    ),
    "checkin_batch": (
        HEAD + '"checkin_batch","body":{"messages":[{"type":"checkin","device_id":7,'
        '"token":"tok","gradient":2,"num_samples":2,"noisy_error_count":-1,'
        '"noisy_label_counts":[1,1],"checkout_iteration":3}]}}\n' + G_HEX,
        lambda: wire.encode_checkin_batch(
            [CheckinMessage(7, "tok", G, 2, -1, np.array([1, 1]), 3)]),
        lambda raw: wire.encode_checkin_batch(wire.decode_checkin_batch(raw)),
    ),
    "checkin_batch_seq": (
        HEAD + '"checkin_batch","body":{"messages":[{"type":"checkin","device_id":7,'
        '"token":"tok","gradient":2,"num_samples":2,"noisy_error_count":-1,'
        '"noisy_label_counts":[1,1],"checkout_iteration":3,"checkin_seq":5},'
        '{"type":"checkin","device_id":8,"token":"tak","gradient":1,"num_samples":1,'
        '"noisy_error_count":0,"noisy_label_counts":[0,1],"checkout_iteration":2}]}}\n'
        + G_HEX + G_HEX[:16],
        lambda: wire.encode_checkin_batch([
            CheckinMessage(7, "tok", G, 2, -1, np.array([1, 1]), 3, checkin_seq=5),
            CheckinMessage(8, "tak", G[:1], 1, 0, np.array([0, 1]), 2),
        ]),
        lambda raw: wire.encode_checkin_batch(wire.decode_checkin_batch(raw)),
    ),
    "checkin_result": (
        HEAD + '"checkin_result","body":{"acks":[{"type":"checkin_ack","device_id":7,'
        '"server_iteration":4},null],"server_iteration":4,"stopped":false,'
        '"stop_reason":"running"}}',
        lambda: wire.encode_checkin_result(
            [CheckinAck(7, 4), None], 4, StopDecision.running()),
        _result_again,
    ),
    "checkin_result_epoch": (
        HEAD + '"checkin_result","body":{"acks":[{"type":"checkin_ack","device_id":7,'
        '"server_iteration":4,"checkin_seq":5,"duplicate":true}],"server_iteration":4,'
        '"stopped":true,"stop_reason":"max_iterations","epoch":2}}',
        lambda: wire.encode_checkin_result(
            [CheckinAck(7, 4, checkin_seq=5, duplicate=True)], 4,
            StopDecision(True, StopReason.MAX_ITERATIONS), epoch=2),
        _result_again,
    ),
    "status_parameters": (
        HEAD + '"status","body":{"protocol_version":3,"iteration":4,"stopped":false,'
        '"stop_reason":"running","checkouts_served":5,"rejected_messages":1,'
        '"registered_devices":2,"num_parameters":2,"duplicates_suppressed":1,'
        '"parameters":2,"epoch":2,"uptime_seconds":1.5,"pid":99}}\n' + G_HEX,
        lambda: wire.encode_status(
            iteration=4, stop=StopDecision.running(), checkouts_served=5,
            rejected_messages=1, registered_devices=2, num_parameters=2,
            duplicates_suppressed=1, parameters=G, epoch=2, uptime_seconds=1.5,
            pid=99),
        _status_again,
    ),
    "error": (
        HEAD + '"error","body":{"code":"stopped","message":"task over"}}',
        lambda: wire.encode_error(wire.ErrorCode.STOPPED, "task over"),
        _error_again,
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_kind_keeps_its_bytes(self, name):
        body, encode, decode_and_encode = GOLDEN[name]
        assert encode() == body
        assert decode_and_encode(body) == body
        assert decode_and_encode(body.encode()) == body


class TestStatusAndErrors:
    def test_status_round_trip(self):
        raw = wire.encode_status(
            iteration=12, stop=StopDecision.running(), checkouts_served=30,
            rejected_messages=1, registered_devices=8, num_parameters=510,
        )
        status = wire.decode_status(raw)
        assert status.iteration == 12
        assert not status.stopped
        assert status.parameters is None
        assert status.protocol_version == wire.PROTOCOL_VERSION
        assert status.num_parameters == 510

    def test_status_with_parameters_is_bit_exact(self):
        parameters = np.random.default_rng(1).normal(size=23)
        raw = wire.encode_status(
            iteration=0, stop=StopDecision.running(), checkouts_served=0,
            rejected_messages=0, registered_devices=0,
            num_parameters=parameters.shape[0], parameters=parameters,
        )
        assert np.array_equal(wire.decode_status(raw).parameters, parameters)

    def test_status_parameters_ride_the_tail_bit_exact(self):
        # NaN payloads and signed zeros too: no JSON float list left.
        parameters = np.array([-0.0, 0.0, np.nan, -np.inf, 5e-324])
        parameters[2:3].view(np.uint64)[0] |= 0xBEEF  # a NaN payload
        raw = wire.encode_status(
            iteration=0, stop=StopDecision.running(), checkouts_served=0,
            rejected_messages=0, registered_devices=0,
            num_parameters=5, parameters=parameters,
        )
        head, tail = head_and_tail(raw)
        assert head["body"]["parameters"] == 5 and len(tail) == 80
        decoded = wire.decode_status(raw).parameters
        assert decoded.tobytes() == parameters.tobytes()

    def test_error_round_trip(self):
        raw = wire.encode_error(wire.ErrorCode.STOPPED, "task over")
        error = wire.decode_error(raw)
        assert isinstance(error, wire.WireError)
        assert error.code == wire.ErrorCode.STOPPED
        assert error.http_status == 409
        assert "task over" in str(error)

    def test_join_round_trip(self):
        assert wire.decode_join_request(wire.encode_join_request(9)) == 9
        assert wire.decode_join_response(
            wire.encode_join_response(9, "tok")) == (9, "tok", -1)
