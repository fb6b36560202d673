"""Transport-agnostic protocol core — Algorithm 2 as a state machine.

:class:`ServerCore` owns the model parameters, the device registry, and
the Eq. 14 progress monitor, and exposes the server side of the Fig. 2
workflow as **batch-native endpoints**:

* :meth:`ServerCore.handle_checkout` / :meth:`ServerCore.handle_checkin`
  — the single-message wire semantics (reject by raising) of Server
  Routines 1 and 2;
* :meth:`ServerCore.handle_checkins` — apply a whole batch of check-ins,
  amortizing the stopping rule once per batch and returning ``None`` in
  place of an ack for each rejected message.  State transitions are
  bit-identical to the equivalent sequence of single calls (with
  rejections caught), whatever the batch size or device interleaving;
* :meth:`ServerCore.serve_round` — the fused checkout→compute→check-in
  round used by zero-delay transports: each request is authenticated,
  answered, handed to the caller's ``complete`` callback (the device
  side), and the resulting check-in applied, all in one synchronous pass
  with no per-message closures or event-queue traffic.

The core never touches a network: transports
(:mod:`repro.network.transport`) decide how messages travel.

The stopping decision is cached between state changes — protocol
endpoints evaluate it per message, but it can only change when an update
is applied, so repeated evaluations are allocation-free hits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.auth import DeviceRegistry
from repro.core.config import ServerConfig
from repro.core.monitor import ProgressMonitor
from repro.core.protocol import (
    CheckinAck,
    CheckinMessage,
    CheckoutRequest,
    CheckoutResponse,
)
from repro.core.stopping import StopDecision, evaluate_stopping
from repro.models.base import Model
from repro.obs.metrics import NULL_REGISTRY, default_size_buckets
from repro.optim.sgd import SGD, Optimizer
from repro.utils.exceptions import ProtocolError


class RoundOutcome(NamedTuple):
    """Result of one fused :meth:`ServerCore.serve_round` call.

    Position ``i`` of each tuple corresponds to request ``i``:
    ``responses[i]``/``messages[i]``/``acks[i]`` are ``None`` when that
    stage rejected or skipped the device (failed authentication, stopped
    task, or a ``complete`` callback that returned no check-in).
    ``stop`` is the stopping decision after the whole round.
    """

    responses: Tuple[Optional[CheckoutResponse], ...]
    messages: Tuple[Optional[CheckinMessage], ...]
    acks: Tuple[Optional[CheckinAck], ...]
    stop: StopDecision


def _fused_round(request, complete, complete_args, admit_checkout, admit_checkin) -> tuple:
    """One request's ``(response, message, ack)`` through the gates of
    :func:`fused_rounds`, which takes the same arguments."""
    response = admit_checkout(request)
    if isinstance(response, Exception):
        return None, None, None
    message = complete(response, *complete_args)
    if message is None:
        return response, None, None
    ack = admit_checkin(message)
    return response, message, None if isinstance(ack, Exception) else ack


def fused_rounds(
    requests: Sequence[CheckoutRequest],
    complete: Callable[..., Optional[CheckinMessage]],
    complete_args: tuple,
    admit_checkout: Callable[[CheckoutRequest], CheckoutResponse | Exception],
    admit_checkin: Callable[[CheckinMessage], CheckinAck | Exception],
) -> Tuple[tuple, tuple, tuple]:
    """The fused Fig. 2 loop behind :meth:`ServerCore.serve_round` and the
    remote proxy's, each over its own gates: per request, ``admit_checkout``
    → ``complete(response, *complete_args)`` → ``admit_checkin``.  A gate
    returns its result, or the rejection as an *unraised* exception —
    ``None`` in that slot of ``(responses, messages, acks)`` and those after."""
    stages = (complete, complete_args, admit_checkout, admit_checkin)
    if len(requests) == 1:
        # The per-round case: the three one-slot tuples, built directly.
        response, message, ack = _fused_round(requests[0], *stages)
        return (response,), (message,), (ack,)
    rounds = [_fused_round(request, *stages) for request in requests]
    return tuple(zip(*rounds)) if rounds else ((), (), ())


class ServerCore:
    """The central coordinator of the crowd-learning task.

    Parameters
    ----------
    model:
        Task definition shared with the devices.
    optimizer:
        Update rule; owns the parameter vector.  Defaults to projected SGD
        with the paper's c/√t schedule if ``None``.
    config:
        T_max and the ρ stopping criterion.
    registry:
        Authentication registry.  A fresh one is created when omitted;
        devices are registered through :meth:`register_device`.
    monitor:
        Optional pre-populated :class:`ProgressMonitor` — the snapshot
        restore seam (:mod:`repro.persist`).  Must match the model's
        class count; a fresh monitor is created when omitted.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.core.config import ServerConfig
    >>> from repro.core.protocol import CheckoutRequest
    >>> model = MulticlassLogisticRegression(num_features=2, num_classes=2)
    >>> core = ServerCore(model, config=ServerConfig(max_iterations=100))
    >>> token = core.register_device(0)
    >>> core.handle_checkout(
    ...     CheckoutRequest(device_id=0, token=token, request_time=0.0)
    ... ).parameters.shape
    (4,)
    """

    def __init__(
        self,
        model: Model,
        optimizer: Optional[Optimizer] = None,
        config: Optional[ServerConfig] = None,
        registry: Optional[DeviceRegistry] = None,
        monitor: Optional[ProgressMonitor] = None,
    ):
        self._model = model
        if optimizer is None:
            optimizer = SGD(model.init_parameters())
        if optimizer.parameters.shape[0] != model.num_parameters:
            raise ProtocolError(
                f"optimizer parameter length {optimizer.parameters.shape[0]} != "
                f"model num_parameters {model.num_parameters}"
            )
        self._optimizer = optimizer
        self._num_parameters = model.num_parameters
        self._config = config if config is not None else ServerConfig(max_iterations=10**9)
        self._registry = registry if registry is not None else DeviceRegistry()
        if monitor is not None and monitor.num_classes != model.num_classes:
            raise ProtocolError(
                f"monitor tracks {monitor.num_classes} classes but the model "
                f"has {model.num_classes}"
            )
        self._monitor = monitor if monitor is not None else ProgressMonitor(model.num_classes)
        self._checkouts_served = 0
        self._rejected_messages = 0
        self._duplicates_suppressed = 0
        # Idempotent re-submission (Remark 1): per device, the highest
        # applied checkin_seq and the server iteration its ack carried.
        self._applied_seqs: Dict[int, Tuple[int, int]] = {}
        self._stop_cache: Optional[StopDecision] = None
        self.attach_metrics(None)

    def attach_metrics(self, metrics=None) -> None:
        """(Re)bind observability instruments (:mod:`repro.obs`).

        Called with ``None`` (the default state, and what ``__init__``
        does) every instrument is a shared no-op singleton, so the
        instrumented sites cost one no-op method call.  The serve layer
        re-binds after construction — including after a snapshot restore,
        which builds the core internally — so metrics never enter
        snapshots.  Instrumented sites sit off the per-message hot path:
        once per batch, per suppressed duplicate, per round.
        """
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._metrics = registry
        self._m_batches = registry.counter("core_checkin_batches_total")
        self._m_batch_size = registry.histogram(
            "core_checkin_batch_size", buckets=default_size_buckets()
        )
        self._m_duplicates = registry.counter("core_duplicates_suppressed_total")
        self._m_stopped = registry.gauge("core_stopped")

    # -- state views ---------------------------------------------------- #

    @property
    def model(self) -> Model:
        return self._model

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def monitor(self) -> ProgressMonitor:
        """The Eq. 14 DP progress estimates."""
        return self._monitor

    @property
    def registry(self) -> DeviceRegistry:
        return self._registry

    @property
    def optimizer(self):
        """The update rule (owns w and t) — exposed for snapshotting."""
        return self._optimizer

    @property
    def parameters(self) -> np.ndarray:
        """Current model parameters w (copy)."""
        return self._optimizer.parameters

    @property
    def iteration(self) -> int:
        """t — number of applied updates."""
        return self._optimizer.iteration

    @property
    def checkouts_served(self) -> int:
        return self._checkouts_served

    @property
    def rejected_messages(self) -> int:
        """Messages refused by authentication or the stopping state."""
        return self._rejected_messages

    @property
    def duplicates_suppressed(self) -> int:
        """Replayed check-ins recognized by sequence number and not re-applied."""
        return self._duplicates_suppressed

    def applied_checkin_seq(self, device_id: int) -> int:
        """Highest applied checkin_seq for a device (``-1`` if none tracked).

        Rejoining clients seed their sequence counter from this so a
        resumed server never mistakes their fresh traffic for replays.
        """
        entry = self._applied_seqs.get(int(device_id))
        return -1 if entry is None else entry[0]

    def counters_state(self) -> Dict[str, object]:
        """Serializable bookkeeping state (the snapshot codec's slice)."""
        return {
            "checkouts_served": self._checkouts_served,
            "rejected_messages": self._rejected_messages,
            "duplicates_suppressed": self._duplicates_suppressed,
            "applied_seqs": {
                str(device_id): [seq, iteration]
                for device_id, (seq, iteration) in sorted(self._applied_seqs.items())
            },
        }

    def restore_counters(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`counters_state` (snapshot restore seam)."""
        self._checkouts_served = int(state["checkouts_served"])
        self._rejected_messages = int(state["rejected_messages"])
        self._duplicates_suppressed = int(state.get("duplicates_suppressed", 0))
        self._applied_seqs = {
            int(device_id): (int(entry[0]), int(entry[1]))
            for device_id, entry in dict(state.get("applied_seqs", {})).items()
        }
        self._stop_cache = None

    def advance_counters(self, checkouts: int, rejected: int, duplicates: int) -> None:
        """Log replay: raise the counters to what unlogged traffic
        (check-outs, batches that applied nothing) had made them."""
        self._checkouts_served = max(self._checkouts_served, checkouts)
        self._rejected_messages = max(self._rejected_messages, rejected)
        self._duplicates_suppressed = max(self._duplicates_suppressed, duplicates)

    def register_device(self, device_id: int) -> str:
        """Enroll a device (Web-portal join flow); returns its token."""
        return self._registry.register(device_id)

    def stopping_decision(self) -> StopDecision:
        """Algorithm 2's stopping criteria for the current state.

        Cached between updates: the decision can only change when a
        check-in is applied, so per-message re-evaluations are free.
        """
        decision = self._stop_cache
        if decision is None:
            decision = evaluate_stopping(self._config, self._optimizer.iteration, self._monitor)
            self._stop_cache = decision
        return decision

    @property
    def stopped(self) -> bool:
        return self.stopping_decision().stopped

    # -- the two admission gates (Algorithm 2's accept/reject rule) ----- #

    def _reject(self, error: Exception) -> Exception:
        self._rejected_messages += 1
        return error

    def _admit_checkout(
        self, request: CheckoutRequest, copy: bool = False
    ) -> CheckoutResponse | Exception:
        """Check-out gate: authenticate → stopped → count → response.  A
        rejection is counted and *returned*; the endpoint raises or drops
        it.  Without ``copy`` the response carries ``parameters_view`` —
        steps rebind rather than mutate, so it is stable without a
        per-round copy, for a caller that never writes to it."""
        try:
            self._registry.authenticate(request.device_id, request.token)
        except Exception as error:
            return self._reject(error)
        if self.stopping_decision().stopped:
            return self._reject(
                ProtocolError("task has stopped; no further check-outs")
            )
        self._checkouts_served += 1
        optimizer = self._optimizer
        return CheckoutResponse(
            device_id=request.device_id,
            parameters=optimizer.parameters if copy else optimizer.parameters_view,
            server_iteration=optimizer.iteration,
            issued_time=request.request_time,
        )

    def _admit_checkin(
        self, message: CheckinMessage, stopped: Optional[bool] = None
    ) -> CheckinAck | Exception:
        """Check-in gate: authenticate → gradient length → replay ack →
        stopped → apply; rejections as from :meth:`_admit_checkout`.  A
        caller that already knows the stopping state passes ``stopped``."""
        try:
            self._registry.authenticate(message.device_id, message.token)
        except Exception as error:
            return self._reject(error)
        if message.gradient.shape[0] != self._num_parameters:
            return self._reject(ProtocolError(
                f"gradient length {message.gradient.shape[0]} != "
                f"model num_parameters {self._num_parameters}"
            ))
        if message.checkin_seq >= 0:
            replay = self._replay_ack(message)
            if replay is not None:
                # A suppressed replay applies no update, so it is answered
                # even once stopped and consumes no iteration budget.
                return replay
        if self.stopping_decision().stopped if stopped is None else stopped:
            return self._reject(
                ProtocolError("task has stopped; no further check-ins")
            )
        return self._apply(message)

    # -- single-message endpoints (wire semantics: reject by raising) --- #

    def handle_checkout(self, request: CheckoutRequest) -> CheckoutResponse:
        """Server Routine 1: authenticate and send current parameters.

        Raises :class:`~repro.utils.exceptions.AuthenticationError` for
        unknown devices and :class:`ProtocolError` once stopped.
        """
        response = self._admit_checkout(request, copy=True)
        if isinstance(response, Exception):
            raise response
        return response

    def handle_checkin(self, message: CheckinMessage) -> CheckinAck:
        """Server Routine 2: authenticate, accumulate stats, apply update.

        The update ``w ← Π_W[w − η(t)·ĝ]`` uses whatever optimizer the
        server was built with; gradient staleness (asynchrony) is inherent
        — the gradient may have been computed against an older w.
        """
        ack = self._admit_checkin(message)
        if isinstance(ack, Exception):
            raise ack
        return ack

    # -- batch endpoints ------------------------------------------------ #

    def handle_checkins(
        self, messages: Sequence[CheckinMessage]
    ) -> List[Optional[CheckinAck]]:
        """Apply a batch of check-ins in order; ``None`` marks a rejection.

        Bit-identical in final state (parameters, monitor, rejection
        counters) to calling :meth:`handle_checkin` once per message and
        catching the rejections.  The stopping rule
        is amortized: without a ρ target the remaining iteration budget is
        closed-form (t against T_max); with one, the cached decision
        makes the per-message re-check allocation-free.
        """
        acks: List[Optional[CheckinAck]] = []
        self._m_batches.inc()
        self._m_batch_size.observe(len(messages))
        # Closed-form iteration budget: each accepted message advances t
        # by exactly one, so without a target-error rule the batch stops
        # where t reaches T_max and the decision need not be re-evaluated.
        track_error = self._config.target_error is not None
        max_iterations = self._config.max_iterations
        for message in messages:
            ack = self._admit_checkin(
                message,
                self.stopped if track_error else self.iteration >= max_iterations,
            )
            acks.append(None if isinstance(ack, Exception) else ack)
        decision = self._stop_cache
        if decision is not None:
            self._m_stopped.set(1.0 if decision.stopped else 0.0)
        return acks

    def serve_round(
        self,
        requests: Sequence[CheckoutRequest],
        complete: Callable[..., Optional[CheckinMessage]],
        complete_args: tuple = (),
    ) -> RoundOutcome:
        """Fused Fig. 2 round: checkout, device compute, check-in — batched.

        For each request (in order): authenticate and serve the check-out,
        call ``complete(response, *complete_args)`` — the device side,
        which returns the sanitized :class:`CheckinMessage` to upload (or
        ``None`` to skip) — and apply that check-in before the next
        request is served.  Zero-delay transports use this to run a whole
        round trip synchronously with no event-queue traffic; state
        transitions are identical to the message-at-a-time path.

        Requests that fail authentication, arrive after the task stopped,
        or whose check-in is rejected yield ``None`` in the corresponding
        outcome slot (no exception), mirroring :meth:`handle_checkins`.
        """
        slots = fused_rounds(
            requests, complete, complete_args, self._admit_checkout, self._admit_checkin
        )
        decision = self.stopping_decision()
        self._m_stopped.set(1.0 if decision.stopped else 0.0)
        return RoundOutcome(*slots, decision)

    # -- internals ------------------------------------------------------ #

    def _replay_ack(self, message: CheckinMessage) -> Optional[CheckinAck]:
        """Recognize a re-submitted, already-applied check-in (Remark 1).

        Only sequence-numbered messages (``checkin_seq >= 0``, checked by
        the caller) participate; the answer echoes the iteration recorded
        when the device's newest check-in was applied, so an immediate
        retry of the last message reproduces its original ack bit for bit.
        """
        seq = message.checkin_seq
        entry = self._applied_seqs.get(message.device_id)
        if entry is None or seq > entry[0]:
            return None
        self._duplicates_suppressed += 1
        self._m_duplicates.inc()
        return CheckinAck(
            device_id=message.device_id,
            server_iteration=entry[1],
            checkin_seq=seq,
            duplicate=True,
        )

    def _apply(self, message: CheckinMessage) -> CheckinAck:
        """Fold one accepted check-in into the server state."""
        self._monitor.record(
            message.device_id, message.num_samples,
            message.noisy_error_count, message.noisy_label_counts,
        )
        optimizer = self._optimizer
        optimizer.step(message.gradient)
        self._stop_cache = None
        iteration = optimizer.iteration
        if message.checkin_seq >= 0:
            self._applied_seqs[message.device_id] = (message.checkin_seq, iteration)
            return CheckinAck(
                device_id=message.device_id,
                server_iteration=iteration,
                checkin_seq=message.checkin_seq,
            )
        return CheckinAck(device_id=message.device_id, server_iteration=iteration)
