"""Property-based round-trip tests for the Fig. 2 messages as HTTP
bodies (:mod:`repro.serve.wire`)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.serve import wire

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


class TestCodecRoundTrips:
    @given(
        device_id=st.integers(0, 10**6),
        token=st.text(min_size=1, max_size=64),
        time=finite_floats.filter(lambda t: t >= 0),
    )
    @settings(max_examples=60)
    def test_checkout_request_roundtrip(self, device_id, token, time):
        message = CheckoutRequest(device_id, token, time)
        decoded = wire.decode_checkout_request(wire.encode_checkout_request(message))
        assert decoded == message

    @given(
        device_id=st.integers(0, 10**6),
        params=st.lists(finite_floats, min_size=1, max_size=40),
        iteration=st.integers(0, 10**9),
    )
    @settings(max_examples=60)
    def test_checkout_response_roundtrip(self, device_id, params, iteration):
        message = CheckoutResponse(
            device_id, np.asarray(params), iteration, issued_time=0.0
        )
        decoded = wire.decode_checkout_response(wire.encode_checkout_response(message))
        assert np.array_equal(decoded.parameters, message.parameters)
        assert decoded.server_iteration == iteration

    @given(
        gradient=st.lists(finite_floats, min_size=1, max_size=40),
        num_samples=st.integers(1, 10**4),
        error_count=st.integers(-100, 100),
        label_counts=st.lists(st.integers(-50, 200), min_size=1, max_size=12),
        checkout_iteration=st.integers(0, 10**9),
    )
    @settings(max_examples=60)
    def test_checkin_roundtrip(self, gradient, num_samples, error_count,
                               label_counts, checkout_iteration):
        message = CheckinMessage(
            device_id=1,
            token="t",
            gradient=np.asarray(gradient),
            num_samples=num_samples,
            noisy_error_count=error_count,
            noisy_label_counts=np.asarray(label_counts, dtype=np.int64),
            checkout_iteration=checkout_iteration,
        )
        [decoded] = wire.decode_checkin_batch(wire.encode_checkin_batch([message]))
        assert np.array_equal(decoded.gradient, message.gradient)
        assert np.array_equal(decoded.noisy_label_counts, message.noisy_label_counts)
        assert decoded.noisy_error_count == error_count
        assert decoded.num_samples == num_samples
        assert decoded.payload_floats == message.payload_floats
