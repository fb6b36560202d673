"""Device authentication (Algorithm 2: "Authenticate device").

The prototype authenticates devices over HTTPS with per-device credentials.
We model that with a registry of per-device shared-secret tokens derived
from a server key: registering a device mints its token; every check-out
and check-in must present a matching token or the server rejects it with
:class:`~repro.utils.exceptions.AuthenticationError`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.utils.digest import HmacSha256, compare_digest
from repro.utils.exceptions import AuthenticationError


class DeviceRegistry:
    """Mints and verifies per-device authentication tokens.

    Examples
    --------
    >>> registry = DeviceRegistry(server_key="secret")
    >>> token = registry.register(7)
    >>> registry.authenticate(7, token)
    >>> registry.authenticate(7, "bogus")
    Traceback (most recent call last):
        ...
    repro.utils.exceptions.AuthenticationError: invalid token for device 7
    """

    def __init__(self, server_key: str = "crowd-ml-server-key"):
        self._server_key = str(server_key).encode("utf-8")
        self._hmac = HmacSha256(self._server_key)
        self._tokens: Dict[int, str] = {}
        self._revoked: set[int] = set()

    def _mint(self, device_id: int) -> str:
        return self._hmac.hexdigest(f"device:{device_id}".encode("utf-8"))

    def register(self, device_id: int) -> str:
        """Enroll a device and return its token (idempotent)."""
        device_id = int(device_id)
        self._revoked.discard(device_id)
        token = self._mint(device_id)
        self._tokens[device_id] = token
        return token

    def revoke(self, device_id: int) -> None:
        """Revoke a device's access (a device leaving the task)."""
        self._revoked.add(int(device_id))

    @property
    def num_registered(self) -> int:
        """Number of currently registered, non-revoked devices."""
        # A count, not a scan (read under the core lock); revoked ids
        # need not be enrolled, hence the intersection.
        return len(self._tokens) - len(self._revoked & self._tokens.keys())

    def is_registered(self, device_id: int) -> bool:
        return int(device_id) in self._tokens and int(device_id) not in self._revoked

    def authenticate(self, device_id: int, token: str) -> None:
        """Raise :class:`AuthenticationError` unless the token is valid."""
        device_id = int(device_id)
        if device_id in self._revoked:
            raise AuthenticationError(f"device {device_id} has been revoked")
        expected = self._tokens.get(device_id)
        if expected is None:
            raise AuthenticationError(f"unknown device {device_id}")
        if not compare_digest(expected, str(token)):
            raise AuthenticationError(f"invalid token for device {device_id}")

    def state_dict(self) -> Dict[str, Any]:
        """Serializable registry state (enrollments + revocations).

        The server key travels too: a restored registry must keep minting
        the same tokens, or re-joining devices would be locked out.
        """
        return {
            "server_key": self._server_key.decode("utf-8"),
            "tokens": {str(device_id): token
                       for device_id, token in sorted(self._tokens.items())},
            "revoked": sorted(self._revoked),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DeviceRegistry":
        """Inverse of :meth:`state_dict`."""
        registry = cls(server_key=str(state["server_key"]))
        registry._tokens = {
            int(device_id): str(token)
            for device_id, token in dict(state["tokens"]).items()
        }
        registry._revoked = {int(device_id) for device_id in state["revoked"]}
        return registry
