"""The four Fig. 2 messages as HTTP bodies (:mod:`repro.serve.wire`):
each round-trips through its kind's one encoder and decoder, and every
bad payload is one typed ``MALFORMED``."""

import json

import numpy as np
import pytest

from repro.core import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
    StopDecision,
)
from repro.serve import wire

#: message type -> (its body's encoder, the decoder giving it back).
CODERS = {
    CheckoutRequest: (wire.encode_checkout_request, wire.decode_checkout_request),
    CheckoutResponse: (wire.encode_checkout_response, wire.decode_checkout_response),
    CheckinMessage: (
        lambda m: wire.encode_checkin_batch([m]),
        lambda raw: wire.decode_checkin_batch(raw)[0],
    ),
    CheckinAck: (
        lambda a: wire.encode_checkin_result([a], 8, StopDecision.running()),
        lambda raw: wire.decode_checkin_result(raw).acks[0],
    ),
}


def head(raw):
    """The JSON head line of a body, parsed."""
    return json.loads(raw.partition("\n")[0])["body"]


def message_head(message):
    """The head object that carries ``message`` itself."""
    body = head(CODERS[type(message)][0](message))
    if isinstance(message, CheckinMessage):
        return body["messages"][0]
    if isinstance(message, CheckinAck):
        return body["acks"][0]
    return body


def assert_malformed(decode, raw, match=None):
    with pytest.raises(wire.WireError, match=match) as excinfo:
        decode(raw)
    assert excinfo.value.code == wire.ErrorCode.MALFORMED
    assert excinfo.value.http_status == 400


@pytest.fixture
def messages():
    return [
        CheckoutRequest(device_id=3, token="tok", request_time=1.25),
        CheckoutResponse(
            device_id=3, parameters=np.array([0.5, -1.5, 2.0]),
            server_iteration=7, issued_time=1.5,
        ),
        CheckinMessage(
            device_id=3, token="tok", gradient=np.array([0.1, 0.2, 0.3]),
            num_samples=5, noisy_error_count=-2,
            noisy_label_counts=np.array([2, 3]), checkout_iteration=6,
        ),
        CheckinAck(device_id=3, server_iteration=8),
    ]


class TestRoundTrip:
    def test_dict_round_trip(self, messages):
        for message in messages:
            encode, decode = CODERS[type(message)]
            decoded = decode(encode(message))
            assert type(decoded) is type(message)
            assert decoded.device_id == message.device_id

    def test_vector_fields_are_written_as_counts(self, messages):
        assert message_head(messages[1])["parameters"] == 3
        assert message_head(messages[2])["gradient"] == 3
        # The count alone is no vector: a head without its tail is refused.
        head_line = wire.encode_checkin_batch([messages[2]]).partition("\n")[0]
        assert_malformed(wire.decode_checkin_batch, head_line)

    def test_json_round_trip_preserves_arrays(self, messages):
        checkin = messages[2]
        [decoded] = wire.decode_checkin_batch(wire.encode_checkin_batch([checkin]))
        assert np.array_equal(decoded.gradient, checkin.gradient)
        assert np.array_equal(decoded.noisy_label_counts, checkin.noisy_label_counts)
        assert decoded.noisy_error_count == -2

    def test_json_round_trip_float_precision(self):
        response = CheckoutResponse(
            device_id=0, parameters=np.array([1 / 3, np.pi]),
            server_iteration=0, issued_time=0.0,
        )
        decoded = wire.decode_checkout_response(wire.encode_checkout_response(response))
        assert np.array_equal(decoded.parameters, response.parameters)

    def test_type_tags_distinct(self, messages):
        tags = {message_head(m)["type"] for m in messages}
        assert len(tags) == 4


class TestMalformedPayloads:
    def test_unknown_type(self):
        raw = wire.encode_envelope("checkout_request", {
            "type": "bogus", "device_id": 1, "token": "t", "request_time": 0.0,
        })
        assert_malformed(wire.decode_checkout_request, raw, match="bogus")

    def test_missing_field(self):
        raw = wire.encode_envelope(
            "checkout_request", {"type": "checkout_request", "device_id": 1}
        )
        assert_malformed(wire.decode_checkout_request, raw, match="malformed")

    def test_non_dict_payload(self):
        assert_malformed(
            wire.decode_checkin_batch,
            wire.encode_envelope("checkin_batch", {"messages": [[1, 2, 3]]}),
        )
        assert_malformed(wire.decode_checkin_result, wire.encode_envelope(
            "checkin_result", {"acks": [[1, 2, 3]], "server_iteration": 0,
                               "stopped": False, "stop_reason": "running"},
        ))

    def test_invalid_json(self):
        assert_malformed(wire.decode_checkout_request, "{not json", match="invalid JSON")

    def test_bad_num_samples_caught_by_constructor(self):
        payload = {
            "type": "checkin", "device_id": 1, "token": "t",
            "gradient": 1, "num_samples": 0, "noisy_error_count": 0,
            "noisy_label_counts": [0], "checkout_iteration": 0,
        }
        raw = wire.encode_envelope("checkin_batch", {"messages": [payload]}, ["0" * 16])
        assert_malformed(wire.decode_checkin_batch, raw, match="num_samples")


class TestServerInterop:
    def test_decoded_checkin_drives_server(self):
        """A check-in that crossed the wire must be fully usable."""
        from repro.core import ServerConfig, ServerCore
        from repro.models import MulticlassLogisticRegression

        model = MulticlassLogisticRegression(2, 2)
        server = ServerCore(model, config=ServerConfig(max_iterations=10))
        token = server.register_device(1)
        body = wire.encode_checkin_batch([CheckinMessage(
            device_id=1, token=token, gradient=np.zeros(4), num_samples=2,
            noisy_error_count=1, noisy_label_counts=np.array([1, 1]),
            checkout_iteration=0,
        )])
        ack = server.handle_checkin(wire.decode_checkin_batch(body)[0])
        assert ack.server_iteration == 1
