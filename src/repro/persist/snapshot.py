"""Versioned snapshot codec for the full :class:`ServerCore` state.

A snapshot is one JSON-compatible dict capturing everything Algorithm 2
accumulates between check-ins:

* the optimizer — the projected SGD every server builds
  (:func:`~repro.optim.paper_sgd`): parameters **bit-exact** as base64
  float64 (:func:`pack_float_array`) and the iteration counter t;
* its schedule and projection hyperparameters (scalar floats survive via
  JSON ``repr`` round-trip — exact for every finite double);
* the server config, the bookkeeping counters (checkouts, rejections,
  duplicate suppressions, per-device applied check-in sequences);
* the :class:`~repro.core.auth.DeviceRegistry` (enrollments, revocations,
  and the minting key) and the :class:`~repro.core.monitor.ProgressMonitor`
  accumulators (all integers — exact).

Privacy accounting is not server state: it stays on the devices.  A
snapshot written before that held an ``"accountant": null`` key, which
restores as if absent; a non-null ledger is refused, since no core can
carry it.

The stopping decision is **not** stored: it is a pure function of config
+ iteration + monitor, so the restored core recomputes it — a snapshot
cannot disagree with its own state.

``restore_core(snapshot_core(core), model)`` produces a core whose
observable state — and whose response to any further traffic — is
bit-identical to the original (property-tested against generated traffic
histories in ``tests/persist/``).

Snapshots carry a :data:`SNAPSHOT_VERSION` stamp and a model fingerprint;
restoring against a different schema version or a mismatched model raises
:class:`SnapshotError` instead of silently loading the wrong run.  So does
snapshotting a core on any other optimizer (Remark 3's AdaGrad or
averaged SGD run in process only), and restoring any other optimizer tag.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict

import numpy as np

from repro.core.auth import DeviceRegistry
from repro.core.config import ServerConfig
from repro.core.monitor import ProgressMonitor
from repro.core.server_core import ServerCore
from repro.models.base import Model
from repro.optim.projection import (
    BoxProjection,
    IdentityProjection,
    L2BallProjection,
)
from repro.optim.schedules import (
    ConstantRate,
    InverseSqrtRate,
    InverseTimeRate,
    StepDecayRate,
)
from repro.optim.sgd import SGD, Optimizer
from repro.utils.digest import sha256
from repro.utils.exceptions import SnapshotError

#: Schema stamp carried by every snapshot.  Bump on any incompatible
#: change to the layout below; :func:`restore_core` refuses other stamps.
SNAPSHOT_VERSION = 1


def pack_float_array(array: np.ndarray) -> str:
    """Base64 of a float vector's little-endian float64 bytes — bit-exact
    (signed zeros, denormals, NaN payloads) through :func:`unpack_float_array`."""
    buffer = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return base64.b64encode(buffer).decode("ascii")


def unpack_float_array(value: Any) -> np.ndarray:
    """Inverse of :func:`pack_float_array`; :class:`SnapshotError` on
    anything but base64 of a whole number of float64s."""
    try:
        buffer = base64.b64decode(value.encode("ascii"), validate=True)
        return np.frombuffer(buffer, dtype="<f8").astype(np.float64)
    except (AttributeError, ValueError) as error:  # binascii.Error is a ValueError
        raise SnapshotError(f"invalid packed float array: {error}") from error


# --------------------------------------------------------------------- #
# schedule / projection / optimizer codecs                              #
# --------------------------------------------------------------------- #


#: family → ``type`` tag → (class, {constructor field: decoder}): the one
#: list of the schedules and projections a snapshot can carry.
_TAGGED = {
    "schedule": {
        "constant": (ConstantRate, {"constant": float}),
        "inverse_sqrt": (InverseSqrtRate, {"constant": float}),
        "inverse_time": (InverseTimeRate, {"constant": float, "decay": float}),
        "step_decay": (
            StepDecayRate, {"constant": float, "factor": float, "period": int}
        ),
    },
    "projection": {
        "identity": (IdentityProjection, {}),
        "l2_ball": (L2BallProjection, {"radius": float}),
        "box": (BoxProjection, {"bound": float}),
    },
}


def _encode_tagged(family: str, value) -> Dict[str, Any]:
    for tag, (cls, fields) in _TAGGED[family].items():
        if type(value) is cls:  # exact type: a subclass may carry more state
            return {"type": tag, **{name: getattr(value, name) for name in fields}}
    raise SnapshotError(f"cannot snapshot {family} {type(value).__name__}")


def _decode_tagged(family: str, state: Dict[str, Any]):
    kind = state.get("type")
    if kind not in _TAGGED[family]:
        raise SnapshotError(f"unknown {family} type {kind!r}")
    cls, fields = _TAGGED[family][kind]
    return cls(**{name: decode(state[name]) for name, decode in fields.items()})


def _encode_optimizer(optimizer: Optimizer) -> Dict[str, Any]:
    # Exact type: AveragedSGD is an SGD subclass with more state.
    if type(optimizer) is not SGD:
        raise SnapshotError(
            f"cannot snapshot optimizer {type(optimizer).__name__}: a snapshot "
            "carries only the SGD every server builds (optim.paper_sgd)"
        )
    return {
        "parameters": pack_float_array(optimizer.parameters_view),
        "iteration": optimizer.iteration,
        "projection": _encode_tagged("projection", optimizer.projection),
        "type": "sgd",
        "schedule": _encode_tagged("schedule", optimizer.schedule),
    }


def _decode_optimizer(state: Dict[str, Any]) -> Optimizer:
    kind = state.get("type")
    if kind != "sgd":
        raise SnapshotError(f"unknown optimizer type {kind!r}")
    parameters = unpack_float_array(state["parameters"])
    optimizer = SGD(
        parameters, schedule=_decode_tagged("schedule", state["schedule"]),
        projection=_decode_tagged("projection", state["projection"]),
    )
    optimizer.restore_state(parameters, int(state["iteration"]))
    return optimizer


# --------------------------------------------------------------------- #
# whole-core snapshot / restore                                         #
# --------------------------------------------------------------------- #


def _model_fingerprint(model: Model) -> Dict[str, Any]:
    return {
        "type": type(model).__name__,
        "num_features": model.num_features,
        "num_classes": model.num_classes,
        "num_parameters": model.num_parameters,
    }


def snapshot_core(core: ServerCore) -> Dict[str, Any]:
    """Serialize the full state of ``core`` as a JSON-compatible dict."""
    config = core.config
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "model": _model_fingerprint(core.model),
        "config": {
            "max_iterations": config.max_iterations,
            "target_error": config.target_error,
            "min_samples_for_error_stop": config.min_samples_for_error_stop,
        },
        "optimizer": _encode_optimizer(core.optimizer),
        "counters": core.counters_state(),
        "registry": core.registry.state_dict(),
        "monitor": core.monitor.state_dict(),
    }


def restore_core(snapshot: Dict[str, Any], model: Model) -> ServerCore:
    """Rebuild a :class:`ServerCore` from :func:`snapshot_core` output.

    ``model`` is supplied by the caller (models are code, not data — the
    CLI rebuilds its model from its own arguments) and validated against
    the snapshot's fingerprint, so a snapshot can never be restored onto
    a different task definition.
    """
    if not isinstance(snapshot, dict):
        raise SnapshotError(
            f"snapshot must be a dict, got {type(snapshot).__name__}"
        )
    version = snapshot.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} != supported {SNAPSHOT_VERSION}"
        )
    try:
        fingerprint = snapshot["model"]
        expected = _model_fingerprint(model)
        if fingerprint != expected:
            raise SnapshotError(
                f"snapshot was taken of model {fingerprint}, "
                f"cannot restore onto {expected}"
            )
        config_state = snapshot["config"]
        config = ServerConfig(
            max_iterations=int(config_state["max_iterations"]),
            target_error=(
                None if config_state["target_error"] is None
                else float(config_state["target_error"])
            ),
            min_samples_for_error_stop=int(
                config_state["min_samples_for_error_stop"]
            ),
        )
        optimizer = _decode_optimizer(snapshot["optimizer"])
        registry = DeviceRegistry.from_state(snapshot["registry"])
        monitor = ProgressMonitor.from_state(snapshot["monitor"])
        if snapshot.get("accountant") is not None:
            raise SnapshotError(
                "snapshot carries a server-side privacy ledger, which no "
                "core keeps; accounting lives on the devices"
            )
        core = ServerCore(
            model,
            optimizer,
            config=config,
            registry=registry,
            monitor=monitor,
        )
        core.restore_counters(snapshot["counters"])
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed snapshot: {error}") from error
    return core


# --------------------------------------------------------------------- #
# canonical file form                                                   #
# --------------------------------------------------------------------- #


def canonical_json(snapshot: Dict[str, Any]) -> str:
    """Canonical serialization (sorted keys) used for checksumming."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def snapshot_checksum(snapshot: Dict[str, Any]) -> str:
    """SHA-256 over the canonical form — the torn-file detector."""
    return sha256(canonical_json(snapshot).encode("utf-8")).hexdigest()
