"""Device-server wire protocol (Fig. 2 workflow).

Four message types cover the whole exchange:

1. :class:`CheckoutRequest` — device asks for the current parameters
   (step 2 of Fig. 2).
2. :class:`CheckoutResponse` — server returns ``w`` after authenticating
   (step 3).
3. :class:`CheckinMessage` — device uploads the sanitized statistics
   ``(ĝ, n_s, n̂_e, n̂_y^k)`` (step 4).
4. :class:`CheckinAck` — server confirms the update was applied (step 5).

Messages are immutable dataclasses; ``payload_floats`` reports the size
used by the Section IV-B2 communication accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils.exceptions import ProtocolError


class CheckoutRequest(NamedTuple):
    """A device's request for the current model parameters.

    (A NamedTuple — immutable like the other protocol messages, but
    constructed without per-field ``object.__setattr__``: one is built
    per check-out round.)
    """

    device_id: int
    token: str
    request_time: float

    @property
    def payload_floats(self) -> int:
        """Requests carry no numeric payload."""
        return 0


@dataclass(frozen=True)
class CheckoutResponse:
    """Server's reply: the current parameters and the server iteration."""

    device_id: int
    parameters: np.ndarray
    server_iteration: int
    issued_time: float

    def __post_init__(self):
        parameters = self.parameters
        # Fast path: a float64 ndarray needs no coercion (and no frozen
        # field rewrite) — the per-round case on the server hot path.
        if type(parameters) is not np.ndarray or parameters.dtype != np.float64:
            parameters = np.asarray(parameters, dtype=np.float64)
            object.__setattr__(self, "parameters", parameters)
        if parameters.ndim != 1:
            raise ProtocolError(f"parameters must be a flat vector, got {parameters.shape}")

    @property
    def payload_floats(self) -> int:
        """One parameter vector."""
        return int(self.parameters.shape[0])


@dataclass(frozen=True)
class CheckinMessage:
    """Sanitized device statistics: ``(ĝ, n_s, n̂_e, n̂_y^k)``.

    Attributes
    ----------
    gradient:
        The sanitized averaged gradient ĝ (Eq. 10), flat.
    num_samples:
        n_s, the exact number of samples averaged (not privatized: it
        reveals only volume, not content; the paper transmits it in clear).
    noisy_error_count:
        n̂_e, discrete-Laplace-perturbed misclassification count (Eq. 11).
    noisy_label_counts:
        n̂_y^k for k = 1..C (Eq. 12).
    checkout_iteration:
        Server iteration at which the parameters used were issued —
        available to delay-aware update rules.
    checkin_seq:
        Per-device monotone sequence number for idempotent re-submission
        (Remark 1): retry-capable clients number their check-ins so the
        server can recognize a replay of an already-applied message and
        answer with the original ack instead of applying it twice.  The
        default ``-1`` means "untracked" — the in-process simulation path
        never sets it and is unaffected.
    """

    device_id: int
    token: str
    gradient: np.ndarray
    num_samples: int
    noisy_error_count: int
    noisy_label_counts: np.ndarray
    checkout_iteration: int
    checkin_seq: int = -1

    def __post_init__(self):
        gradient = self.gradient
        # Fast paths mirror CheckoutResponse: already-coerced arrays (the
        # per-check-in case) skip the asarray and frozen field rewrite.
        if type(gradient) is not np.ndarray or gradient.dtype != np.float64:
            gradient = np.asarray(gradient, dtype=np.float64)
            object.__setattr__(self, "gradient", gradient)
        if gradient.ndim != 1:
            raise ProtocolError(f"gradient must be a flat vector, got {gradient.shape}")
        counts = self.noisy_label_counts
        if type(counts) is not np.ndarray or counts.dtype != np.int64:
            counts = np.asarray(counts, dtype=np.int64)
            object.__setattr__(self, "noisy_label_counts", counts)
        if counts.ndim != 1:
            raise ProtocolError(f"label counts must be 1-D, got {counts.shape}")
        if self.num_samples <= 0:
            raise ProtocolError(f"num_samples must be positive, got {self.num_samples}")

    @property
    def payload_floats(self) -> int:
        """Gradient plus the C + 2 scalar counters."""
        return int(self.gradient.shape[0] + self.noisy_label_counts.shape[0] + 2)


class CheckinAck(NamedTuple):
    """Server's acknowledgement of an applied check-in.

    (A NamedTuple — one is built per applied check-in.)

    ``checkin_seq`` echoes the message's sequence number (``-1`` when the
    sender did not number it); ``duplicate`` is True when the server
    recognized a replay of an already-applied message and answered with
    the original ack's iteration instead of applying it again.
    """

    device_id: int
    server_iteration: int
    checkin_seq: int = -1
    duplicate: bool = False

    @property
    def payload_floats(self) -> int:
        return 1
