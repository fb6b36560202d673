"""The Crowd-ML framework core: device and server runtimes (Algorithms 1-2).

Workflow (Fig. 2): a :class:`~repro.core.device.Device` buffers samples and,
once a minibatch is full, checks out the current ``w`` from the
:class:`~repro.core.server_core.ServerCore`, computes and sanitizes the
averaged gradient, and checks the statistics back in; the server applies
the asynchronous SGD update.  All privacy happens on-device
(:class:`~repro.core.sanitizer.CheckinSanitizer`), so nothing unsanitized
ever crosses the :mod:`repro.network` channels.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "BatchPolicy": "adaptive",
    "CheckinAck": "protocol",
    "FixedBatch": "adaptive",
    "StalenessAdaptiveBatch": "adaptive",
    "CheckinMessage": "protocol",
    "CheckinResult": "device",
    "CheckinSanitizer": "sanitizer",
    "CheckoutRequest": "protocol",
    "CheckoutResponse": "protocol",
    "Device": "device",
    "DeviceConfig": "config",
    "DeviceRegistry": "auth",
    "ProgressMonitor": "monitor",
    "RoundOutcome": "server_core",
    "SanitizedCheckin": "sanitizer",
    "ServerConfig": "config",
    "ServerCore": "server_core",
    "StopDecision": "stopping",
    "StopReason": "stopping",
    "evaluate_stopping": "stopping",
})
