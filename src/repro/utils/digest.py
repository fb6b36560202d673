"""SHA-256, BLAKE2b and HMAC-SHA256 from CPython's built-in hash modules.

``import hashlib`` loads OpenSSL's ``_hashlib`` and maps ``libcrypto``
(about 3.5 MB of peak RSS per server process on x86-64 Linux) to serve
algorithms the interpreter also ships in its own small modules.  A
server hashes a device id per token and one snapshot body now and then,
so it takes the built-in ones: the same bytes, no OpenSSL.  An
interpreter built without them falls back to ``hashlib``.
"""

from __future__ import annotations

from _operator import _compare_digest as compare_digest  # what ``hmac`` uses without OpenSSL

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 / 3.11
    except ImportError:
        from hashlib import sha256

try:
    from _blake2 import blake2b  # what ``hashlib.blake2b`` is
except ImportError:
    from hashlib import blake2b

__all__ = ["HmacSha256", "blake2b", "compare_digest", "sha256"]

_BLOCK_SIZE = 64  # SHA-256's, in bytes
_INNER_PAD = bytes(x ^ 0x36 for x in range(256))
_OUTER_PAD = bytes(x ^ 0x5C for x in range(256))


class HmacSha256:
    """HMAC-SHA256 (RFC 2104) under one key.

    The padded key's two states are hashed once here; each message copies
    them, so a tag costs two compressions of the message and one of the
    inner digest.

    >>> HmacSha256(b"key").hexdigest(b"The quick brown fox jumps over the lazy dog")[:16]
    'f7bc83f430538424'
    """

    __slots__ = ("_key", "_inner", "_outer")

    def __init__(self, key: bytes):
        self._key = bytes(key)
        padded = self._key
        if len(padded) > _BLOCK_SIZE:
            padded = sha256(padded).digest()
        padded = padded.ljust(_BLOCK_SIZE, b"\0")
        self._inner = sha256(padded.translate(_INNER_PAD))
        self._outer = sha256(padded.translate(_OUTER_PAD))

    def __reduce__(self):
        return type(self), (self._key,)  # hash states do not pickle

    def hexdigest(self, message: bytes) -> str:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()
