"""The Crowd-ML framework core: device and server runtimes (Algorithms 1-2).

Workflow (Fig. 2): a :class:`~repro.core.device.Device` buffers samples and,
once a minibatch is full, checks out the current ``w`` from the
:class:`~repro.core.server_core.ServerCore`, computes and sanitizes the
averaged gradient, and checks the statistics back in; the server applies
the asynchronous SGD update.  All privacy happens on-device
(:class:`~repro.core.sanitizer.CheckinSanitizer`), so nothing unsanitized
ever crosses the :mod:`repro.network` channels.
"""

from repro.core.adaptive import BatchPolicy, FixedBatch, StalenessAdaptiveBatch
from repro.core.auth import DeviceRegistry
from repro.core.codec import (
    decode_from_json,
    decode_message,
    encode_message,
    encode_to_json,
)
from repro.core.config import DeviceConfig, ServerConfig
from repro.core.device import CheckinResult, Device
from repro.core.monitor import ProgressMonitor
from repro.core.protocol import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.core.sanitizer import CheckinSanitizer, SanitizedCheckin
from repro.core.server_core import RoundOutcome, ServerCore
from repro.core.stopping import StopDecision, StopReason, evaluate_stopping

__all__ = [
    "BatchPolicy",
    "CheckinAck",
    "FixedBatch",
    "StalenessAdaptiveBatch",
    "decode_from_json",
    "decode_message",
    "encode_message",
    "encode_to_json",
    "CheckinMessage",
    "CheckinResult",
    "CheckinSanitizer",
    "CheckoutRequest",
    "CheckoutResponse",
    "Device",
    "DeviceConfig",
    "DeviceRegistry",
    "ProgressMonitor",
    "RoundOutcome",
    "SanitizedCheckin",
    "ServerConfig",
    "ServerCore",
    "StopDecision",
    "StopReason",
    "evaluate_stopping",
]
