"""The built-in hash modules give ``hashlib`` / ``hmac``'s bytes exactly."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.digest import HmacSha256, blake2b, compare_digest, sha256


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=1000))
def test_sha256_matches_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=300), st.integers(1, 64))
def test_blake2b_matches_hashlib(data, size):
    assert blake2b(data, digest_size=size).digest() == hashlib.blake2b(
        data, digest_size=size).digest()


@pytest.mark.parametrize("key_size", [0, 1, 63, 64, 65, 200])
@pytest.mark.parametrize("message", [b"", b"device:7", bytes(range(256)) * 3])
def test_hmac_matches_the_standard_library(key_size, message):
    key = bytes((7 * i + 3) % 256 for i in range(key_size))
    expected = hmac.new(key, message, hashlib.sha256).hexdigest()
    assert HmacSha256(key).hexdigest(message) == expected


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=200))
def test_hmac_matches_the_standard_library_on_arbitrary_bytes(key, message):
    assert HmacSha256(key).hexdigest(message) == hmac.new(
        key, message, hashlib.sha256).hexdigest()


def test_one_key_serves_many_messages():
    tagger = HmacSha256(b"server-key")
    for device in range(5):
        message = f"device:{device}".encode()
        assert tagger.hexdigest(message) == hmac.new(
            b"server-key", message, hashlib.sha256).hexdigest()


def test_compare_digest():
    assert compare_digest("abc", "abc")
    assert not compare_digest("abc", "abd")
    assert not compare_digest("abc", "ab")
