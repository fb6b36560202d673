"""Tests for the message codec (payload dicts) and its HTTP-body round
trips through :mod:`repro.serve.wire`."""

import numpy as np
import pytest

from repro.core import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
    decode_message,
    encode_message,
)
from repro.serve import wire
from repro.utils.exceptions import ProtocolError


def vector_of(message):
    """The float vector a message's payload writes as a count."""
    return getattr(message, "gradient", getattr(message, "parameters", None))


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
            decoded = decode_message(encode_message(message), vector_of(message))
            assert type(decoded) is type(message)
            assert decoded.device_id == message.device_id

    def test_vector_fields_are_written_as_counts(self, messages):
        assert encode_message(messages[1])["parameters"] == 3
        assert encode_message(messages[2])["gradient"] == 3
        with pytest.raises(ProtocolError):  # the count alone is no vector
            decode_message(encode_message(messages[2]))

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
        tags = {encode_message(m)["type"] for m in messages}
        assert len(tags) == 4


class TestMalformedPayloads:
    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message({"type": "bogus"})

    def test_missing_field(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message({"type": "checkout_request", "device_id": 1})

    def test_non_dict_payload(self):
        with pytest.raises(ProtocolError):
            decode_message([1, 2, 3])

    def test_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            wire.decode_checkout_request("{not json")

    def test_bad_num_samples_caught_by_constructor(self):
        payload = {
            "type": "checkin", "device_id": 1, "token": "t",
            "gradient": 1, "num_samples": 0, "noisy_error_count": 0,
            "noisy_label_counts": [0], "checkout_iteration": 0,
        }
        with pytest.raises(ProtocolError):
            decode_message(payload, np.zeros(1))


class TestServerInterop:
    def test_decoded_checkin_drives_server(self):
        """A check-in that crossed the codec must be fully usable."""
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
