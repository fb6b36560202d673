"""Wire codec: serialize protocol messages to/from JSON-compatible dicts.

The prototype ships messages over HTTPS; this codec defines the payload
format a real deployment would use.  Every message carries a ``type``
tag so a single endpoint can dispatch.

Float vectors (gradients, parameters) travel **packed**: base64 of the
raw little-endian float64 buffer.  Packing is bit-exact by construction
(the decoder reconstructs the identical IEEE-754 doubles, NaN payloads
and signed zeros included) and roughly two orders of magnitude cheaper
than JSON float lists — the difference between the serve path being
serialization-bound and request-bound (see the gateway arm of the
serve-throughput benchmark).  Packed is the only form the decoders
accept for these fields; small integer vectors (label counts) stay
lists.

Round-trip fidelity is exact for the integer fields and bit-exact for
gradients/parameters; decoding validates shapes through the message
constructors, so a malformed payload raises
:class:`~repro.utils.exceptions.ProtocolError` rather than propagating
garbage into the learning loop.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict, Union

import numpy as np

from repro.core.protocol import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.utils.exceptions import ProtocolError

Message = Union[CheckoutRequest, CheckoutResponse, CheckinMessage, CheckinAck]

_TYPE_TAGS = {
    CheckoutRequest: "checkout_request",
    CheckoutResponse: "checkout_response",
    CheckinMessage: "checkin",
    CheckinAck: "checkin_ack",
}


def pack_float_array(array: np.ndarray) -> str:
    """Pack a float vector as base64 of its little-endian float64 bytes.

    Bit-exact: every IEEE-754 double (signed zeros, denormals, NaN
    payloads) reconstructs identically through
    :func:`unpack_float_array`.
    """
    buffer = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return base64.b64encode(buffer).decode("ascii")


def unpack_float_array(value: Any) -> np.ndarray:
    """Inverse of :func:`pack_float_array`.

    Raises :class:`ProtocolError` on anything but a packed string:
    undecodable base64, or a buffer that is not a whole number of
    float64s.
    """
    if not isinstance(value, str):
        raise ProtocolError(
            f"float array must be a packed string, got {type(value).__name__}"
        )
    try:
        buffer = base64.b64decode(value.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as error:
        raise ProtocolError(f"invalid packed float array: {error}") from error
    if len(buffer) % 8:
        raise ProtocolError(
            f"packed float array is {len(buffer)} bytes, not a multiple of 8"
        )
    return np.frombuffer(buffer, dtype="<f8").astype(np.float64, copy=True)


def encode_message(message: Message) -> Dict[str, Any]:
    """Encode a protocol message as a JSON-compatible dict."""
    tag = _TYPE_TAGS.get(type(message))
    if tag is None:
        raise ProtocolError(f"cannot encode {type(message).__name__}")
    if isinstance(message, CheckoutRequest):
        body = {
            "device_id": message.device_id,
            "token": message.token,
            "request_time": message.request_time,
        }
    elif isinstance(message, CheckoutResponse):
        body = {
            "device_id": message.device_id,
            "parameters": pack_float_array(message.parameters),
            "server_iteration": message.server_iteration,
            "issued_time": message.issued_time,
        }
    elif isinstance(message, CheckinMessage):
        body = {
            "device_id": message.device_id,
            "token": message.token,
            "gradient": pack_float_array(message.gradient),
            "num_samples": message.num_samples,
            "noisy_error_count": message.noisy_error_count,
            "noisy_label_counts": message.noisy_label_counts.tolist(),
            "checkout_iteration": message.checkout_iteration,
        }
        # Untracked messages (the default) keep the pre-seq byte layout.
        if message.checkin_seq >= 0:
            body["checkin_seq"] = message.checkin_seq
    else:  # CheckinAck
        body = {
            "device_id": message.device_id,
            "server_iteration": message.server_iteration,
        }
        if message.checkin_seq >= 0:
            body["checkin_seq"] = message.checkin_seq
        if message.duplicate:
            body["duplicate"] = True
    return {"type": tag, **body}


def decode_message(payload: Dict[str, Any]) -> Message:
    """Decode a dict produced by :func:`encode_message`.

    Raises :class:`ProtocolError` on unknown tags or missing fields.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"payload must be a dict, got {type(payload).__name__}")
    tag = payload.get("type")
    try:
        if tag == "checkout_request":
            return CheckoutRequest(
                device_id=int(payload["device_id"]),
                token=str(payload["token"]),
                request_time=float(payload["request_time"]),
            )
        if tag == "checkout_response":
            return CheckoutResponse(
                device_id=int(payload["device_id"]),
                parameters=unpack_float_array(payload["parameters"]),
                server_iteration=int(payload["server_iteration"]),
                issued_time=float(payload["issued_time"]),
            )
        if tag == "checkin":
            return CheckinMessage(
                device_id=int(payload["device_id"]),
                token=str(payload["token"]),
                gradient=unpack_float_array(payload["gradient"]),
                num_samples=int(payload["num_samples"]),
                noisy_error_count=int(payload["noisy_error_count"]),
                noisy_label_counts=np.asarray(
                    payload["noisy_label_counts"], dtype=np.int64
                ),
                checkout_iteration=int(payload["checkout_iteration"]),
                checkin_seq=int(payload.get("checkin_seq", -1)),
            )
        if tag == "checkin_ack":
            return CheckinAck(
                device_id=int(payload["device_id"]),
                server_iteration=int(payload["server_iteration"]),
                checkin_seq=int(payload.get("checkin_seq", -1)),
                duplicate=bool(payload.get("duplicate", False)),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed {tag!r} payload: {error}") from error
    raise ProtocolError(f"unknown message type {tag!r}")


def encode_to_json(message: Message) -> str:
    """Encode straight to a JSON string (the HTTPS body)."""
    return json.dumps(encode_message(message), separators=(",", ":"))


def decode_from_json(text: str) -> Message:
    """Decode a JSON string produced by :func:`encode_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error}") from error
    return decode_message(payload)
