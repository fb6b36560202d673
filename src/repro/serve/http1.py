"""HTTP/1.1 framing for the wire protocol — the one module that knows it.

Both ends of every hop call it: :class:`~repro.serve.client.ServiceClient`
to build requests and read responses, :class:`~repro.serve.host.HttpHost`
the other way round.  A message is read through a buffered ``readline``
into a start line plus a lower-cased header dict, and built as **one**
``bytes`` for one ``sendall`` (split in two segments, the body stalls
~44 ms on Nagle against the peer's delayed ACK).

Refused here rather than guessed, as :class:`FramingError` (the host
answers a typed 400 ``malformed`` and closes, the client raises a
retryable ``unreachable``): a line over 65 536 bytes or more than 100
headers; a head cut short or a header line without a colon; a
``Content-Length`` that is not one non-negative integer, conflicting
duplicates included; any ``Transfer-Encoding`` (neither end emits one,
and chunks read as an empty body would be parsed as the next message);
a body shorter than declared; a request line that is not ``METHOD
target HTTP/x.y`` with x < 2; a status line without a 3-digit status.

What each end adds on top.  The host: the 64 MiB body cap (413), 405
for non-GET/POST, the body read before routing, ``Expect:
100-continue`` answered, close-after-any-error announced with
``Connection: close``, HTTP/1.0 closed unless ``keep-alive``.  The
client: 1xx interim responses skipped, ``Connection: close`` honoured,
a response with no ``Content-Length`` read to EOF and its socket
discarded, one replay on a stale pooled socket, timeouts as ``OSError``.
"""

from __future__ import annotations

import re
from typing import BinaryIO, Callable, Dict, Iterable, Optional, Tuple

from repro.utils.exceptions import ProtocolError

MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

_REQUEST_LINE = re.compile(r"(\S+) +(\S+) +HTTP/(\d+)\.(\d+)", re.ASCII)
_STATUS_LINE = re.compile(r"HTTP/(\d+)\.(\d+) +(\d{3})(?: .*)?", re.ASCII)


class FramingError(ProtocolError):
    """The peer's bytes are not an HTTP/1.1 message this wire accepts."""


def _read_line(readline: Callable[[int], bytes]) -> bytes:
    line = readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise FramingError(f"line longer than {MAX_LINE_BYTES} bytes")
    return line


def read_head(readline: Callable[[int], bytes]) -> Tuple[str, Dict[str, str]]:
    """``(start line, {lower-cased name: value})`` of the next message;
    ``ConnectionResetError`` when the peer closed before sending a byte
    of it.  Repeated headers are joined with ``", "`` (RFC 7230 §3.2.2)."""
    start = _read_line(readline)
    if not start:
        raise ConnectionResetError("connection closed before any message")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(readline)
        if line in (b"\r\n", b"\n"):
            return start.decode("latin-1").strip(), headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not line.endswith(b"\n"):
            raise FramingError("header block cut short or malformed")
        name, value = name.strip().lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise FramingError(f"more than {MAX_HEADERS} headers")


def body_length(headers: Dict[str, str]) -> Optional[int]:
    """The declared body length; ``None`` when none is declared (a
    request then has no body, a response runs to EOF)."""
    if "transfer-encoding" in headers:
        raise FramingError("Transfer-Encoding is not supported on this wire; "
                           "frame the body with Content-Length")
    declared = headers.get("content-length")
    if declared is None:
        return None
    values = {value.strip() for value in declared.split(",")}
    value = values.pop()
    if values or not (value.isascii() and value.isdigit()):
        raise FramingError(f"bad Content-Length header {declared!r}")
    return int(value)


def read_body(rfile: BinaryIO, length: Optional[int]) -> bytes:
    """Exactly ``length`` bytes — never fewer — or, for ``None``, all
    that arrives before EOF."""
    body = rfile.read(length)
    if length is not None and len(body) < length:
        raise FramingError(f"body cut short at {len(body)} of {length} bytes")
    return body


def _keeps_alive(major: str, minor: str, headers: Dict[str, str]) -> bool:
    """HTTP/1.1 stays open unless ``close``, HTTP/1.0 only on ``keep-alive``."""
    connection = headers.get("connection", "").lower()
    if (int(major), int(minor)) >= (1, 1):
        return "close" not in connection
    return "keep-alive" in connection


def parse_request_line(start: str, headers: Dict[str, str]) -> Tuple[str, str, bool]:
    """``(method, target, keep_alive)`` of a request head."""
    match = _REQUEST_LINE.fullmatch(start)
    if match is None or int(match[3]) >= 2:
        raise FramingError(f"bad request line or unsupported HTTP version: {start!r}")
    return match[1], match[2], _keeps_alive(match[3], match[4], headers)


def read_response(rfile: BinaryIO) -> Tuple[int, Dict[str, str], bytes, bool]:
    """The next final response as ``(status, headers, body, keep_alive)``,
    1xx interim responses skipped.  A body with no declared length runs
    to EOF, so that connection is not kept alive."""
    status = 100
    while status < 200:
        start, headers = read_head(rfile.readline)
        match = _STATUS_LINE.fullmatch(start)
        if match is None:
            raise FramingError(f"bad status line {start!r}")
        status = int(match[3])
    length = body_length(headers)
    return (status, headers, read_body(rfile, length),
            length is not None and _keeps_alive(match[1], match[2], headers))


def build(start: str, headers: Iterable[Tuple[str, object]], body: bytes) -> bytes:
    """One message — start line, ``headers``, ``Content-Length``, blank
    line, body — as one ``bytes``, for one ``sendall``."""
    head = "".join(f"{name}: {value}\r\n" for name, value in headers)
    return f"{start}\r\n{head}Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
