"""Tests for device authentication."""

import pickle

import pytest

from repro.core import DeviceRegistry
from repro.utils.exceptions import AuthenticationError


class TestRegistration:
    def test_register_and_authenticate(self):
        registry = DeviceRegistry()
        token = registry.register(1)
        registry.authenticate(1, token)  # must not raise

    def test_tokens_differ_across_devices(self):
        registry = DeviceRegistry()
        assert registry.register(1) != registry.register(2)

    def test_registration_idempotent(self):
        registry = DeviceRegistry()
        assert registry.register(1) == registry.register(1)

    def test_token_bytes_are_pinned(self):
        # HMAC-SHA256(server key, "device:<id>"): state dirs written by any
        # earlier version hold these tokens and must keep authenticating.
        assert DeviceRegistry().register(7) == (
            "6e3a9428cdab3b3133b08fe11c07df44a9f08b12f21a6fd203e4d2c5261a9cb0")
        assert DeviceRegistry(server_key="secret").register(0) == (
            "ddac3bf0f9333bf50b6dce52cc28889b78049dd0a8141961a36871f73dd24061")

    def test_registry_pickles(self):
        registry = DeviceRegistry(server_key="secret")
        token = registry.register(3)
        copy = pickle.loads(pickle.dumps(registry))
        copy.authenticate(3, token)
        assert copy.register(4) == registry.register(4)

    def test_tokens_differ_across_server_keys(self):
        a = DeviceRegistry(server_key="alpha").register(1)
        b = DeviceRegistry(server_key="beta").register(1)
        assert a != b

    def test_num_registered(self):
        registry = DeviceRegistry()
        registry.register(1)
        registry.register(2)
        assert registry.num_registered == 2

    def test_is_registered(self):
        registry = DeviceRegistry()
        registry.register(1)
        assert registry.is_registered(1)
        assert not registry.is_registered(2)


class TestAuthenticationFailures:
    def test_unknown_device(self):
        with pytest.raises(AuthenticationError, match="unknown"):
            DeviceRegistry().authenticate(9, "whatever")

    def test_wrong_token(self):
        registry = DeviceRegistry()
        registry.register(1)
        with pytest.raises(AuthenticationError, match="invalid token"):
            registry.authenticate(1, "forged")

    def test_token_from_other_device_rejected(self):
        """A malignant device cannot impersonate another with its own token."""
        registry = DeviceRegistry()
        token2 = registry.register(2)
        registry.register(1)
        with pytest.raises(AuthenticationError):
            registry.authenticate(1, token2)


class TestRevocation:
    def test_revoked_device_rejected(self):
        registry = DeviceRegistry()
        token = registry.register(1)
        registry.revoke(1)
        with pytest.raises(AuthenticationError, match="revoked"):
            registry.authenticate(1, token)

    def test_revoked_not_counted(self):
        registry = DeviceRegistry()
        registry.register(1)
        registry.revoke(1)
        assert registry.num_registered == 0
        assert not registry.is_registered(1)

    def test_num_registered_counts_register_revoke_reregister(self):
        """A count, not a scan — so it must track every transition,
        including a revocation of a device that never enrolled."""
        registry = DeviceRegistry()
        for device_id in range(5):
            registry.register(device_id)
        registry.revoke(1)
        registry.revoke(3)
        registry.revoke(3)   # idempotent
        registry.revoke(99)  # never enrolled: not a negative enrollment
        assert registry.num_registered == 3
        registry.register(3)  # rejoins
        registry.register(0)  # re-registration of a live device
        assert registry.num_registered == 4
        assert registry.num_registered == sum(
            registry.is_registered(d) for d in range(100)
        )

    def test_reregistration_after_revoke(self):
        """Devices can leave and rejoin the task (Fig. 2 caption)."""
        registry = DeviceRegistry()
        registry.register(1)
        registry.revoke(1)
        token = registry.register(1)
        registry.authenticate(1, token)
