"""Message codec: protocol messages to/from JSON-compatible payload dicts.

Every payload carries a ``type`` tag so a single endpoint can dispatch.
A float vector field (a check-in's ``gradient``, a check-out response's
``parameters``) is written as its element count: the vector travels
outside the payload (:mod:`repro.serve.wire`, which owns the HTTP body,
appends it as hex) and :func:`decode_message` takes it back as an
argument.  Decoding validates shapes through the message constructors,
so a malformed payload raises :class:`~repro.utils.exceptions.ProtocolError`
rather than propagating garbage into the learning loop.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

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
            "parameters": message.parameters.size,
            "server_iteration": message.server_iteration,
            "issued_time": message.issued_time,
        }
    elif isinstance(message, CheckinMessage):
        body = {
            "device_id": message.device_id,
            "token": message.token,
            "gradient": message.gradient.size,
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


def decode_message(
    payload: Dict[str, Any], vector: Optional[np.ndarray] = None
) -> Message:
    """Decode a dict produced by :func:`encode_message`; ``vector`` is
    the float vector its count field stands for (``None`` if it has none).

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
                parameters=vector,
                server_iteration=int(payload["server_iteration"]),
                issued_time=float(payload["issued_time"]),
            )
        if tag == "checkin":
            return CheckinMessage(
                device_id=int(payload["device_id"]),
                token=str(payload["token"]),
                gradient=vector,
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

