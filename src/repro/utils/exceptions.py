"""Exception hierarchy for the Crowd-ML reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration mistakes from runtime protocol failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent combination of parameters."""


class ProtocolError(ReproError):
    """A malformed or out-of-order message in the device-server protocol."""


class AuthenticationError(ProtocolError):
    """A device failed server-side authentication (Algorithm 2)."""


class SnapshotError(ReproError):
    """A snapshot that cannot be produced or restored.

    Defined here rather than in :mod:`repro.persist.snapshot` so that the
    state-dir code a sharded front end runs (fencing) need not import the
    snapshot codec to raise or catch it.
    """
