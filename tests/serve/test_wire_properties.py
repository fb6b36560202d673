"""Property/fuzz tests over the wire envelopes (satellite: never an
unhandled exception).

Two contracts:

* **Round trip** — any protocol message survives
  encode → JSON text → decode with exact value fidelity (floats are
  IEEE-754 bit-exact through ``repr``).
* **Totality** — feeding the decoders *anything* (random text, random
  bytes, truncated valid payloads, version-fuzzed envelopes) produces
  either a decoded message or a typed :class:`~repro.serve.wire.WireError`
  — never ``KeyError``/``TypeError``/``ValueError`` leaking out of the
  schema layer, which is what keeps :class:`CrowdService` un-crashable.
* **Tails refused typed** — every way a vector tail can disagree with
  its head is ``MALFORMED`` from the wire and a 400 + close over HTTP.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import CheckinMessage, CheckoutRequest, CheckoutResponse
from repro.core.server_core import ServerCore
from repro.core.stopping import StopDecision
from repro.models import MulticlassLogisticRegression
from repro.serve import CrowdService, wire

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)

DECODERS = (
    wire.decode_join_request,
    wire.decode_join_response,
    wire.decode_checkout_request,
    wire.decode_checkout_response,
    wire.decode_checkin_batch,
    wire.decode_checkin_result,
    wire.decode_status,
    wire.decode_error,
)


def checkin(device_id, dim):
    return CheckinMessage(
        device_id=device_id, token="t", gradient=np.arange(1.0, dim + 1),
        num_samples=2, noisy_error_count=0,
        noisy_label_counts=np.array([1, 1]), checkout_iteration=0,
    )


#: Every way a body's tail can disagree with its head.
TAIL_FAULTS = (
    "odd_length", "non_hex", "non_ascii", "count_over", "count_under",
    "trailing", "negative_count", "bool_count", "float_count", "split_head",
)


def with_tail_fault(raw: str, fault: str, at: int) -> str:
    """``raw`` (a body with vectors) broken by ``fault``; ``at`` picks
    the entry, character or cut point it hits."""
    head, _, tail = raw.partition("\n")
    envelope = json.loads(head)
    body = envelope["body"]
    entries = body.get("messages", [body])
    entry = entries[at % len(entries)]
    field = "gradient" if "gradient" in entry else "parameters"
    if fault == "odd_length":
        return f"{head}\n{tail[:-1]}"
    if fault in ("non_hex", "non_ascii"):
        spot = at % len(tail)
        bad = "g" if fault == "non_hex" else "\u00e9"
        return f"{head}\n{tail[:spot]}{bad}{tail[spot + 1:]}"
    if fault == "trailing":
        return raw + "0123456789abcdef0"[: 1 + at % 17]
    if fault == "split_head":
        cut = 1 + at % (len(head) - 1)
        return f"{head[:cut]}\n{head[cut:]}\n{tail}"
    entry[field] = {
        "count_over": entry[field] + 1, "count_under": entry[field] - 1,
        "negative_count": -1, "bool_count": True, "float_count": float(entry[field]),
    }[fault]
    return json.dumps(envelope, separators=(",", ":")) + "\n" + tail


def vector_bodies(dims):
    """A check-in batch, a check-out response and a status carrying vectors."""
    parameters = np.ones(dims[0])
    return (
        (wire.encode_checkin_batch([checkin(d, dim) for d, dim in enumerate(dims)]),
         wire.decode_checkin_batch),
        (wire.encode_checkout_response(CheckoutResponse(0, parameters, 1, 0.0)),
         wire.decode_checkout_response),
        (wire.encode_status(0, StopDecision.running(), 0, 0, 0, dims[0],
                            parameters=parameters),
         wire.decode_status),
    )


class TestRoundTrips:
    @given(
        device_id=st.integers(0, 10**6),
        token=st.text(min_size=1, max_size=64),
        time=finite_floats.filter(lambda t: t >= 0),
    )
    @settings(max_examples=50)
    def test_checkout_request(self, device_id, token, time):
        request = CheckoutRequest(device_id, token, time)
        assert wire.decode_checkout_request(
            wire.encode_checkout_request(request)) == request

    @given(params=st.lists(finite_floats, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_checkout_response_bit_exact(self, params):
        response = CheckoutResponse(0, np.asarray(params), 3, 0.0)
        decoded = wire.decode_checkout_response(
            wire.encode_checkout_response(response))
        # Bit-exact, not approx: the remote parity contract rests on this.
        assert decoded.parameters.tobytes() == response.parameters.tobytes()

    @given(
        gradients=st.lists(
            st.lists(finite_floats, min_size=3, max_size=3),
            min_size=1, max_size=5,
        ),
        num_samples=st.integers(1, 1000),
        error_count=st.integers(-50, 50),
        counts=st.lists(st.integers(-10, 10**6), min_size=2, max_size=2),
    )
    @settings(max_examples=50)
    def test_checkin_batch_bit_exact(self, gradients, num_samples,
                                     error_count, counts):
        messages = [
            CheckinMessage(
                device_id=i, token=f"t{i}",
                gradient=np.asarray(gradient),
                num_samples=num_samples,
                noisy_error_count=error_count,
                noisy_label_counts=np.asarray(counts, dtype=np.int64),
                checkout_iteration=i,
            )
            for i, gradient in enumerate(gradients)
        ]
        decoded = wire.decode_checkin_batch(wire.encode_checkin_batch(messages))
        for original, copy in zip(messages, decoded):
            assert copy.gradient.tobytes() == original.gradient.tobytes()
            assert copy.num_samples == original.num_samples
            assert copy.noisy_error_count == original.noisy_error_count
            assert np.array_equal(
                copy.noisy_label_counts, original.noisy_label_counts)


class TestTotality:
    @given(raw=st.text(max_size=200))
    @settings(max_examples=150)
    def test_arbitrary_text_never_escapes_typed_errors(self, raw):
        for decode in DECODERS:
            try:
                decode(raw)
            except wire.WireError as error:
                assert error.code in vars(wire.ErrorCode).values()
                assert 400 <= error.http_status < 600

    @given(raw=st.binary(max_size=200))
    @settings(max_examples=100)
    def test_arbitrary_bytes_never_escape_typed_errors(self, raw):
        for decode in DECODERS:
            try:
                decode(raw)
            except wire.WireError:
                pass

    def test_truncated_valid_payloads(self):
        """Every proper prefix of a valid encoding — a cut head, a head
        alone, or a short tail — is malformed."""
        for full, decode in vector_bodies([4, 2]):
            for cut in range(len(full)):
                for raw in (full[:cut], full[:cut].encode("utf-8")):
                    with pytest.raises(wire.WireError) as excinfo:
                        decode(raw)
                    assert excinfo.value.code == wire.ErrorCode.MALFORMED, cut

    @given(
        dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        fault=st.sampled_from(TAIL_FAULTS),
        at=st.integers(0, 10**6),
        as_bytes=st.booleans(),
    )
    @settings(max_examples=200)
    def test_every_tail_fault_is_malformed(self, dims, fault, at, as_bytes):
        for full, decode in vector_bodies(dims):
            raw = with_tail_fault(full, fault, at)
            with pytest.raises(wire.WireError) as excinfo:
                decode(raw.encode("utf-8") if as_bytes else raw)
            assert excinfo.value.code == wire.ErrorCode.MALFORMED, (fault, raw)

    @given(
        version=st.one_of(
            st.integers(-5, 100).filter(lambda v: v != wire.PROTOCOL_VERSION),
            st.text(max_size=5), st.none(), st.floats(allow_nan=False),
        ),
        kind=st.sampled_from(
            ["checkout_request", "checkin_batch", "status", "error"]),
    )
    @settings(max_examples=100)
    def test_wrong_version_is_always_version_mismatch(self, version, kind):
        raw = json.dumps({"protocol": version, "kind": kind, "body": {}})
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_envelope(raw)
        assert excinfo.value.code == wire.ErrorCode.VERSION_MISMATCH

    @given(
        body=st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(),
                      st.floats(allow_nan=False), st.text(max_size=10)),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        ).filter(lambda b: isinstance(b, dict)),
        kind=st.sampled_from([
            "join_request", "checkout_request", "checkin_batch",
            "checkin_result", "status", "error",
        ]),
    )
    @settings(max_examples=150)
    def test_arbitrary_bodies_never_escape_typed_errors(self, body, kind):
        """Structured garbage inside a valid envelope stays typed."""
        raw = wire.encode_envelope(kind, body)
        for decode in DECODERS:
            try:
                decode(raw)
            except wire.WireError:
                pass

    def test_float_special_values_rejected_or_preserved(self):
        """NaN/inf parameters: json encodes them; decode keeps values."""
        response = CheckoutResponse(
            0, np.array([np.inf, -np.inf, np.nan]), 0, 0.0)
        decoded = wire.decode_checkout_response(
            wire.encode_checkout_response(response))
        assert decoded.parameters.tobytes() == response.parameters.tobytes()

    def test_stop_decision_running_helper(self):
        raw = wire.encode_checkin_result([], 0, StopDecision.running())
        assert not wire.decode_checkin_result(raw).stopped


@pytest.fixture(scope="module")
def live_service():
    core = ServerCore(MulticlassLogisticRegression(2, 2))
    with CrowdService(core) as service:
        yield service


@pytest.mark.parametrize("fault", TAIL_FAULTS)
def test_tail_faults_are_400_and_close_over_http(live_service, fault):
    body = with_tail_fault(wire.encode_checkin_batch([checkin(0, 4), checkin(1, 4)]), fault, 5)
    request = urllib.request.Request(
        live_service.url + "/v1/checkins", data=body.encode("utf-8"), method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    error = excinfo.value
    assert error.code == 400
    assert error.headers["Connection"] == "close"
    assert wire.decode_error(error.read()).code == wire.ErrorCode.MALFORMED
