"""Versioned wire schema for the remote Crowd-ML service API.

Every HTTP body exchanged with :class:`~repro.serve.service.CrowdService`
is one **envelope**: a JSON head line, then — if the body carries float
vectors — ``"\\n"`` and a hex **tail**::

    {"protocol": 3, "kind": "<kind>", "body": {...}}
    <lowercase hex of the vectors' little-endian float64 bytes>

In the head each vector field (``gradient``, ``parameters``) holds its
element count, and the tail holds the vectors in field order: 16 hex
digits per element.  No float passes through the JSON scanner.

The ``protocol`` stamp (:data:`PROTOCOL_VERSION`) lets either side reject
a peer speaking a different schema *before* interpreting the body; the
``kind`` tag names the payload so a single endpoint can dispatch and a
mis-routed request fails loudly.  A Fig. 2 message (check-out request
and response, check-in, ack) also carries its own ``type`` tag.

Request/response kinds
----------------------

Keys are written in the order listed; ``?`` marks a key written only
when set, ``#`` a vector field (its element count).

=====================  =============================================
kind                   body
=====================  =============================================
``join_request``       ``{"device_id": int}``
``join_response``      ``{"device_id": int, "token": str,
                       "last_checkin_seq": int?}``
``checkout_request``   ``{"type": "checkout_request", "device_id": int,
                       "token": str, "request_time": float}``
``checkout_response``  ``{"type": "checkout_response", "device_id": int,
                       "parameters": #, "server_iteration": int,
                       "issued_time": float}`` + tail
``checkin_batch``      ``{"messages": [checkin, ...]}`` + tail (the
                       gradients, in message order); a checkin is
                       ``{"type": "checkin", "device_id": int,
                       "token": str, "gradient": #, "num_samples": int,
                       "noisy_error_count": int, "noisy_label_counts":
                       [int, ...], "checkout_iteration": int,
                       "checkin_seq": int?}``
``checkin_result``     ``{"acks": [ack | null, ...],
                       "server_iteration": int, "stopped": bool,
                       "stop_reason": str, "epoch": int?}``; an ack is
                       ``{"type": "checkin_ack", "device_id": int,
                       "server_iteration": int, "checkin_seq": int?,
                       "duplicate": true?}``
``status``             ``{"protocol_version": int, "iteration": int,
                       "stopped": bool, "stop_reason": str,
                       "checkouts_served": int, "rejected_messages":
                       int, "registered_devices": int,
                       "num_parameters": int, "duplicates_suppressed":
                       int, "parameters": #?, "epoch": int?,
                       "shards": [object, ...]?, "uptime_seconds":
                       float?, "pid": int?}`` (+ tail)
``error``              ``{"code": str, "message": str}``
=====================  =============================================

Only this module reads or writes these bodies.  The sharded front end
alone may look at one undecoded, and only through the router helpers
(:func:`device_id_of`, :func:`checkin_batch_entries`,
:func:`encode_checkin_entries`, :func:`answer_epoch`,
:func:`checkin_result_head`), so forwarding reads heads only and decodes
no gradient, ack or parameter array.  Importing this module loads no
NumPy: only the functions that build messages or vectors import it, so
the front end runs without it.

Typed errors
------------

Decoding problems raise :class:`WireError` carrying a machine-readable
:class:`ErrorCode` and the HTTP status the service maps it to.  The
service encodes the same triple back as an ``error`` envelope, so remote
clients re-raise the *same* typed error a local caller would have seen
(auth failures, stopped-task rejections) instead of a bare HTTP status.

Fidelity notes
--------------

* Floats survive exactly.  Every vector travels as the hex of its
  float64 bytes and reconstructs the identical doubles, NaN payloads
  and signed zeros included; scalar floats serialize via ``repr``,
  which round-trips every finite IEEE-754 double bit for bit.  A
  sequential training run over this wire format therefore matches an
  in-process run float for float.
* Privacy accounting stays on the device — no body carries it, by
  design, mirroring the paper's deployment where the server only sees
  the sanitized statistics.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.stopping import StopDecision, StopReason
from repro.utils.exceptions import ProtocolError

if TYPE_CHECKING:
    import numpy as np

    from repro.core.protocol import CheckinMessage, CheckoutRequest, CheckoutResponse

#: Version stamp carried by every envelope.  Bump on any incompatible
#: change to the envelope or body schemas.  History: 1 = JSON float
#: lists for all arrays; 2 = gradient/parameter vectors packed float64
#: strings inside the JSON; 3 = vectors out of line, hex tail.
PROTOCOL_VERSION = 3

#: Hard cap on the number of check-ins one batch envelope may carry —
#: a malformed (or hostile) client cannot make the server materialize an
#: unbounded message list before validation rejects it.
MAX_BATCH_MESSAGES = 10_000


class ErrorCode:
    """Machine-readable error codes carried by ``error`` envelopes."""

    VERSION_MISMATCH = "version_mismatch"
    MALFORMED = "malformed"
    AUTH_FAILED = "auth_failed"
    STOPPED = "stopped"
    NOT_FOUND = "not_found"
    METHOD_NOT_ALLOWED = "method_not_allowed"
    PAYLOAD_TOO_LARGE = "payload_too_large"
    INTERNAL = "internal"
    UNREACHABLE = "unreachable"
    #: The request was understood but no healthy worker can serve it
    #: right now (a sharded front end mid-failover).  Mapped to 503, so
    #: retrying clients back off and replay — by which time the
    #: supervisor has usually respawned the shard.
    UNAVAILABLE = "unavailable"


#: HTTP status the service answers with for each error code.
HTTP_STATUS = {
    ErrorCode.VERSION_MISMATCH: 426,
    ErrorCode.MALFORMED: 400,
    ErrorCode.AUTH_FAILED: 401,
    ErrorCode.STOPPED: 409,
    ErrorCode.NOT_FOUND: 404,
    ErrorCode.METHOD_NOT_ALLOWED: 405,
    ErrorCode.PAYLOAD_TOO_LARGE: 413,
    ErrorCode.INTERNAL: 500,
    ErrorCode.UNAVAILABLE: 503,
}


class WireError(ProtocolError):
    """A request or response that violates the wire schema.

    Attributes
    ----------
    code:
        One of the :class:`ErrorCode` constants.
    http_status:
        The HTTP status this error maps to (500 for unknown codes).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.http_status = HTTP_STATUS.get(code, 500)


#: An ack's four fields in :class:`~repro.core.protocol.CheckinAck` order,
#: as a ``CheckinAck`` or the plain tuple :func:`checkin_result_head` reads.
AckFields = Tuple[int, int, int, bool]


@dataclass(frozen=True)
class CheckinBatchResult:
    """Decoded ``checkin_result`` body: per-message acks + server state.

    Each ack is a :class:`~repro.core.protocol.CheckinAck`, or its plain
    :data:`AckFields` tuple when read by :func:`checkin_result_head`.
    ``epoch`` is the answering worker's incarnation epoch on a sharded
    tier (``-1`` on an unsharded service, which omits the field) — the
    front end uses it to refuse answers from a fenced zombie.
    """

    acks: Tuple[Optional[AckFields], ...]
    server_iteration: int
    stopped: bool
    stop_reason: str
    epoch: int = -1

    @property
    def stop_decision(self) -> StopDecision:
        """The server's stopping state as a local :class:`StopDecision`."""
        return StopDecision(self.stopped, StopReason(self.stop_reason))


@dataclass(frozen=True)
class ServiceStatus:
    """Decoded ``status`` body: one snapshot of the hosted core."""

    protocol_version: int
    iteration: int
    stopped: bool
    stop_reason: str
    checkouts_served: int
    rejected_messages: int
    registered_devices: int
    num_parameters: int
    duplicates_suppressed: int = 0
    parameters: Optional[np.ndarray] = None
    #: Worker incarnation epoch (``-1`` = unsharded service).
    epoch: int = -1
    #: Per-shard detail rows from an aggregating front end (``None`` on
    #: a plain worker status).
    shards: Optional[Tuple[Dict[str, Any], ...]] = None
    #: Seconds since this process started serving (``None`` on statuses
    #: from services predating the field).
    uptime_seconds: Optional[float] = None
    #: Serving process's PID — distinguishes incarnations after failover.
    pid: Optional[int] = None

    @property
    def stop_decision(self) -> StopDecision:
        return StopDecision(self.stopped, StopReason(self.stop_reason))


# --------------------------------------------------------------------- #
# Envelope plumbing                                                     #
# --------------------------------------------------------------------- #


def encode_envelope(
    kind: str, body: Dict[str, Any], tails: Optional[Sequence[str]] = None
) -> str:
    """Serialize a versioned envelope: the JSON head line, then ``"\\n"``
    and the hex ``tails`` of the body's vectors, in order (``None`` = none)."""
    head = json.dumps(
        {"protocol": PROTOCOL_VERSION, "kind": kind, "body": body},
        separators=(",", ":"),
    )
    # One join: the body is the only large string an encode allocates.
    return head if tails is None else "".join([head, "\n", *tails])


def hex_tail(vector: np.ndarray) -> str:
    """One vector's part of a tail: the hex of its little-endian float64s."""
    import numpy as np

    return np.ascontiguousarray(vector, dtype="<f8").tobytes().hex()


def parse_envelope(
    raw: Union[str, bytes], expected_kind: Optional[str] = None
) -> Tuple[str, Dict[str, Any]]:
    """Parse and validate an envelope's head line; returns ``(kind, body)``."""
    return _parse(raw, expected_kind)[:2]


def _parse(
    raw: Union[str, bytes], expected_kind: Optional[str] = None
) -> Tuple[str, Dict[str, Any], Union[str, memoryview]]:
    """``(kind, body, tail)``; the tail is returned unread (of a ``bytes``
    body, as a view: it is the bulk of the body, so it is not copied).

    Raises :class:`WireError` with :data:`ErrorCode.MALFORMED` for
    anything that is not a well-formed envelope (bad UTF-8, truncated
    JSON, non-dict payloads, missing fields, an unexpected ``kind``) and
    :data:`ErrorCode.VERSION_MISMATCH` for an envelope whose protocol
    stamp differs — or is missing entirely, which is an unknown (ancient)
    protocol rather than a merely malformed body.
    """
    if isinstance(raw, str):
        head, _, tail = raw.partition("\n")
    else:
        end = raw.find(b"\n")
        end = len(raw) if end < 0 else end
        tail = memoryview(raw)[end + 1:]
        try:
            head = raw[:end].decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireError(ErrorCode.MALFORMED, f"body is not UTF-8: {error}")
    try:
        envelope = json.loads(head)
    except json.JSONDecodeError as error:
        raise WireError(ErrorCode.MALFORMED, f"invalid JSON: {error}")
    if not isinstance(envelope, dict):
        raise WireError(
            ErrorCode.MALFORMED,
            f"envelope must be an object, got {type(envelope).__name__}",
        )
    version = envelope.get("protocol")
    # Strict: the stamp must be the exact int (1.0 and True satisfy
    # == but are not valid stamps).  The version check runs before any
    # body interpretation, so a future schema can change everything but
    # this stamp.
    if (type(version) is not int) or version != PROTOCOL_VERSION:
        raise WireError(
            ErrorCode.VERSION_MISMATCH,
            f"protocol version {version!r} != supported {PROTOCOL_VERSION}",
        )
    kind = envelope.get("kind")
    body = envelope.get("body")
    if not isinstance(kind, str) or not isinstance(body, dict):
        raise WireError(ErrorCode.MALFORMED, "envelope needs string 'kind' and object 'body'")
    if expected_kind is not None and kind != expected_kind:
        raise WireError(
            ErrorCode.MALFORMED, f"expected {expected_kind!r} envelope, got {kind!r}"
        )
    return kind, body, tail


def _count(payload: Dict[str, Any], field: str) -> int:
    """A vector field's element count, as the head must carry it."""
    count = payload.get(field)
    if type(count) is not int or count < 0:
        raise WireError(
            ErrorCode.MALFORMED, f"{field!r} must be an element count, got {count!r}"
        )
    return count


def _check_tail(tail: Union[str, memoryview], counts: Sequence[int]) -> None:
    if len(tail) != 16 * sum(counts):
        raise WireError(ErrorCode.MALFORMED, f"tail of {len(tail)} hex digits, counts {counts}")


def _vectors(tail: Union[str, memoryview], counts: Sequence[int]) -> List[np.ndarray]:
    """Decode the tail into one float64 vector per count, in order."""
    _check_tail(tail, counts)
    if not counts:
        return []
    import numpy as np

    try:
        buffer = binascii.a2b_hex(tail)
    except ValueError as error:  # binascii.Error, or a non-ASCII str
        raise WireError(ErrorCode.MALFORMED, f"tail is not hex: {error}")
    vectors, offset = [], 0
    for count in counts:
        vectors.append(np.frombuffer(buffer, "<f8", count, offset).astype(np.float64))
        offset += 8 * count
    return vectors


def _head_only(raw: Union[str, bytes], kind: str) -> Dict[str, Any]:
    """The body of a kind that carries no vectors (any tail is refused)."""
    _, body, tail = _parse(raw, kind)
    _check_tail(tail, ())
    return body


#: What reading a field of a parsed head can raise, a message
#: constructor's refusal (``ProtocolError``) included: each decoder turns
#: all of them into one ``MALFORMED``.
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, ProtocolError)


def _malformed(kind: str, error: Exception) -> WireError:
    return WireError(ErrorCode.MALFORMED, f"malformed {kind}: {error}")


def _typed(payload: Dict[str, Any], tag: str) -> None:
    """Refuse a message payload whose ``type`` tag is not ``tag``."""
    if payload.get("type") != tag:
        raise ValueError(f"expected a {tag!r} payload, got type {payload.get('type')!r}")


def device_id_of(body: Dict[str, Any], kind: str = "checkin") -> int:
    """Router helper: the ``device_id`` every request body (and every
    ``checkin_batch`` entry) carries, read without decoding the rest."""
    try:
        return int(body["device_id"])
    except _FIELD_ERRORS as error:
        raise _malformed(kind, error)


def answer_epoch(raw: Union[str, bytes]) -> int:
    """Router helper: the worker epoch stamped on a ``checkin_result`` or
    ``status`` answer, read at body level (``-1`` = unstamped; also for
    an answer that is no envelope — whoever decodes it complains)."""
    try:
        epoch = parse_envelope(raw)[1].get("epoch", -1)
    except WireError:
        return -1
    return epoch if isinstance(epoch, int) else -1


# --------------------------------------------------------------------- #
# join                                                                  #
# --------------------------------------------------------------------- #


def encode_join_request(device_id: int) -> str:
    return encode_envelope("join_request", {"device_id": int(device_id)})


def decode_join_request(raw: Union[str, bytes]) -> int:
    return device_id_of(_head_only(raw, "join_request"), "join_request")


def encode_join_response(
    device_id: int, token: str, last_checkin_seq: int = -1
) -> str:
    """``last_checkin_seq`` is the highest check-in sequence the server
    has already applied for this device (``-1`` = none).  A retry-capable
    client resumes numbering *after* it, so a device re-joining a server
    that restored from a snapshot doesn't reuse sequence numbers the
    dedupe ledger would silently swallow.  Encoded only when set, so the
    join bytes of seq-unaware deployments are unchanged.
    """
    body: Dict[str, Any] = {"device_id": int(device_id), "token": str(token)}
    if last_checkin_seq >= 0:
        body["last_checkin_seq"] = int(last_checkin_seq)
    return encode_envelope("join_response", body)


def decode_join_response(raw: Union[str, bytes]) -> Tuple[int, str, int]:
    """``(device_id, token, last_checkin_seq)``; the server's last applied
    sequence number for the device is ``-1`` when absent."""
    body = _head_only(raw, "join_response")
    try:
        return (
            int(body["device_id"]),
            str(body["token"]),
            int(body.get("last_checkin_seq", -1)),
        )
    except _FIELD_ERRORS as error:
        raise _malformed("join_response", error)


# --------------------------------------------------------------------- #
# checkout                                                              #
# --------------------------------------------------------------------- #


def encode_checkout_request(request: CheckoutRequest) -> str:
    return encode_envelope("checkout_request", {
        "type": "checkout_request",
        "device_id": request.device_id,
        "token": request.token,
        "request_time": request.request_time,
    })


def decode_checkout_request(raw: Union[str, bytes]) -> CheckoutRequest:
    from repro.core.protocol import CheckoutRequest

    body = _head_only(raw, "checkout_request")
    try:
        _typed(body, "checkout_request")
        return CheckoutRequest(
            int(body["device_id"]), str(body["token"]), float(body["request_time"])
        )
    except _FIELD_ERRORS as error:
        raise _malformed("checkout_request", error)


def encode_checkout_response(
    response: CheckoutResponse, tail: Optional[str] = None
) -> str:
    """``tail`` is :func:`hex_tail` of ``response.parameters`` when the
    caller already has it: the service keeps one per server iteration,
    so a check-out costs a short head, not a re-encoded vector."""
    if tail is None:
        tail = hex_tail(response.parameters)
    return (
        f'{{"protocol":{PROTOCOL_VERSION},"kind":"checkout_response",'
        f'"body":{{"type":"checkout_response","device_id":{int(response.device_id)},'
        f'"parameters":{len(tail) // 16},'
        f'"server_iteration":{int(response.server_iteration)},'
        f'"issued_time":{json.dumps(float(response.issued_time))}}}}}\n{tail}'
    )


def decode_checkout_response(raw: Union[str, bytes]) -> CheckoutResponse:
    from repro.core.protocol import CheckoutResponse

    _, body, tail = _parse(raw, "checkout_response")
    [parameters] = _vectors(tail, [_count(body, "parameters")])
    try:
        _typed(body, "checkout_response")
        return CheckoutResponse(
            int(body["device_id"]), parameters, int(body["server_iteration"]),
            float(body["issued_time"]),
        )
    except _FIELD_ERRORS as error:
        raise _malformed("checkout_response", error)


# --------------------------------------------------------------------- #
# batch check-in                                                        #
# --------------------------------------------------------------------- #


def _checkin_entry(message: CheckinMessage) -> Dict[str, Any]:
    entry = {
        "type": "checkin",
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
        entry["checkin_seq"] = message.checkin_seq
    return entry


def encode_checkin_batch(messages: Sequence[CheckinMessage]) -> str:
    return encode_checkin_entries(
        [_checkin_entry(m) for m in messages], [hex_tail(m.gradient) for m in messages]
    )


def encode_checkin_entries(entries: List[Dict[str, Any]], tails: Sequence[str]) -> str:
    """Router helper: a (sub-)batch of entries still undecoded, each
    with its slice of the tail."""
    return encode_envelope("checkin_batch", {"messages": entries}, tails)


def checkin_batch_entries(
    raw: Union[str, bytes],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """The structural check of a ``checkin_batch`` body: a non-empty list
    of at most :data:`MAX_BATCH_MESSAGES` objects, returned undecoded
    with each one's slice of the tail (the sharded front end routes on
    them without decoding a gradient)."""
    entries, counts, tail = _checkin_batch(raw)
    _check_tail(tail, counts)
    if not isinstance(tail, str):
        tail = str(tail, "latin-1")  # 1:1; the shard refuses what is not hex
    ends = accumulate(16 * count for count in counts)
    return entries, [tail[end - 16 * count:end] for count, end in zip(counts, ends)]


def _checkin_batch(raw: Union[str, bytes]) -> Tuple[List[Dict[str, Any]], List[int], Any]:
    _, body, tail = _parse(raw, "checkin_batch")
    messages = body.get("messages")
    if not isinstance(messages, list) or not messages:
        raise WireError(
            ErrorCode.MALFORMED, "checkin_batch needs a non-empty 'messages' list"
        )
    if len(messages) > MAX_BATCH_MESSAGES:
        raise WireError(
            ErrorCode.MALFORMED,
            f"checkin_batch carries {len(messages)} messages "
            f"(limit {MAX_BATCH_MESSAGES})",
        )
    if not all(isinstance(entry, dict) for entry in messages):
        raise WireError(ErrorCode.MALFORMED, "checkin_batch entries must be objects")
    return messages, [_count(entry, "gradient") for entry in messages], tail


def decode_checkin_batch(raw: Union[str, bytes]) -> List[CheckinMessage]:
    from repro.core.protocol import CheckinMessage

    entries, counts, tail = _checkin_batch(raw)
    gradients = _vectors(tail, counts)
    messages = []
    try:
        for entry, gradient in zip(entries, gradients):
            _typed(entry, "checkin")
            messages.append(CheckinMessage(
                device_id=int(entry["device_id"]),
                token=str(entry["token"]),
                gradient=gradient,
                num_samples=int(entry["num_samples"]),
                noisy_error_count=int(entry["noisy_error_count"]),
                # A list: the message makes it its int64 array.
                noisy_label_counts=entry["noisy_label_counts"],
                checkout_iteration=int(entry["checkout_iteration"]),
                checkin_seq=int(entry.get("checkin_seq", -1)),
            ))
    except _FIELD_ERRORS as error:
        raise _malformed("checkin", error)
    return messages


def _ack_entry(ack: Optional[AckFields]) -> Optional[Dict[str, Any]]:
    if ack is None:
        return None
    device_id, server_iteration, checkin_seq, duplicate = ack
    entry = {
        "type": "checkin_ack",
        "device_id": device_id,
        "server_iteration": server_iteration,
    }
    if checkin_seq >= 0:
        entry["checkin_seq"] = checkin_seq
    if duplicate:
        entry["duplicate"] = True
    return entry


def _ack(entry: Any, make_ack: Callable[[AckFields], Any]) -> Any:
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise TypeError(f"ack entries must be objects or null, got {type(entry).__name__}")
    _typed(entry, "checkin_ack")
    return make_ack((
        int(entry["device_id"]),
        int(entry["server_iteration"]),
        int(entry.get("checkin_seq", -1)),
        bool(entry.get("duplicate", False)),
    ))


def encode_checkin_result(
    acks: Sequence[Optional[AckFields]],
    server_iteration: int,
    stop: StopDecision,
    epoch: int = -1,
) -> str:
    body: Dict[str, Any] = {
        "acks": [_ack_entry(ack) for ack in acks],
        "server_iteration": int(server_iteration),
        "stopped": bool(stop.stopped),
        "stop_reason": stop.reason.value,
    }
    if epoch >= 0:
        # Only sharded workers stamp an epoch, so unsharded result bytes
        # are unchanged.
        body["epoch"] = int(epoch)
    return encode_envelope("checkin_result", body)


def decode_checkin_result(raw: Union[str, bytes]) -> CheckinBatchResult:
    from repro.core.protocol import CheckinAck

    return _checkin_result(raw, CheckinAck._make)


def checkin_result_head(raw: Union[str, bytes]) -> CheckinBatchResult:
    """Router helper: :func:`decode_checkin_result` with each ack left as
    its plain :data:`AckFields` tuple — checked the same way, and written
    back by :func:`encode_checkin_result` to the same bytes — so merging
    shard answers builds no :class:`~repro.core.protocol.CheckinAck`."""
    return _checkin_result(raw, tuple)


def _checkin_result(
    raw: Union[str, bytes], make_ack: Callable[[AckFields], Any]
) -> CheckinBatchResult:
    body = _head_only(raw, "checkin_result")
    try:
        acks = body["acks"]
        if not isinstance(acks, list):
            raise TypeError("'acks' must be a list")
        result = CheckinBatchResult(
            tuple(_ack(entry, make_ack) for entry in acks),
            int(body["server_iteration"]),
            bool(body["stopped"]),
            str(body["stop_reason"]),
            int(body.get("epoch", -1)),
        )
        StopReason(result.stop_reason)  # must be a known reason
    except _FIELD_ERRORS as error:
        raise _malformed("checkin_result", error)
    return result


# --------------------------------------------------------------------- #
# status                                                                #
# --------------------------------------------------------------------- #


def encode_status(
    iteration: int,
    stop: StopDecision,
    checkouts_served: int,
    rejected_messages: int,
    registered_devices: int,
    num_parameters: int,
    duplicates_suppressed: int = 0,
    parameters: Optional[np.ndarray] = None,
    epoch: int = -1,
    shards: Optional[Sequence[Dict[str, Any]]] = None,
    uptime_seconds: Optional[float] = None,
    pid: Optional[int] = None,
) -> str:
    body: Dict[str, Any] = {
        "protocol_version": PROTOCOL_VERSION,
        "iteration": int(iteration),
        "stopped": bool(stop.stopped),
        "stop_reason": stop.reason.value,
        "checkouts_served": int(checkouts_served),
        "rejected_messages": int(rejected_messages),
        "registered_devices": int(registered_devices),
        "num_parameters": int(num_parameters),
        "duplicates_suppressed": int(duplicates_suppressed),
    }
    tails = None if parameters is None else [hex_tail(parameters)]
    if tails is not None:
        body["parameters"] = len(tails[0]) // 16
    if epoch >= 0:
        body["epoch"] = int(epoch)
    if shards is not None:
        body["shards"] = [dict(entry) for entry in shards]
    if uptime_seconds is not None:
        body["uptime_seconds"] = float(uptime_seconds)
    if pid is not None:
        body["pid"] = int(pid)
    return encode_envelope("status", body, tails)


def decode_status(raw: Union[str, bytes]) -> ServiceStatus:
    _, body, tail = _parse(raw, "status")
    counts = [_count(body, "parameters")] if "parameters" in body else []
    parameters = (_vectors(tail, counts) or [None])[0]
    try:
        shards = body.get("shards")
        if shards is not None:
            if not isinstance(shards, list) or not all(
                isinstance(entry, dict) for entry in shards
            ):
                raise ValueError("'shards' must be a list of objects")
            shards = tuple(shards)
        status = ServiceStatus(
            protocol_version=int(body["protocol_version"]),
            iteration=int(body["iteration"]),
            stopped=bool(body["stopped"]),
            stop_reason=str(body["stop_reason"]),
            checkouts_served=int(body["checkouts_served"]),
            rejected_messages=int(body["rejected_messages"]),
            registered_devices=int(body["registered_devices"]),
            num_parameters=int(body["num_parameters"]),
            duplicates_suppressed=int(body.get("duplicates_suppressed", 0)),
            parameters=parameters,
            epoch=int(body.get("epoch", -1)),
            shards=shards,
            uptime_seconds=(
                float(body["uptime_seconds"])
                if body.get("uptime_seconds") is not None else None
            ),
            pid=int(body["pid"]) if body.get("pid") is not None else None,
        )
        StopReason(status.stop_reason)
    except _FIELD_ERRORS as error:
        raise _malformed("status", error)
    return status


# --------------------------------------------------------------------- #
# errors                                                                #
# --------------------------------------------------------------------- #


def encode_error(code: str, message: str) -> str:
    return encode_envelope("error", {"code": str(code), "message": str(message)})


def decode_error(raw: Union[str, bytes]) -> WireError:
    """Decode an ``error`` envelope back into the typed exception."""
    body = _head_only(raw, "error")
    try:
        return WireError(str(body["code"]), str(body["message"]))
    except _FIELD_ERRORS as error:
        raise _malformed("error envelope", error)
