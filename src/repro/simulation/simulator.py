"""Event-driven simulation of a Crowd-ML deployment (Section V-C).

The :class:`CrowdSimulator` wires M :class:`~repro.core.device.Device`
actors to one :class:`~repro.core.server_core.ServerCore` and drives the
whole system from a deterministic
:class:`~repro.network.events.EventQueue`:

* each device's samples arrive at rate F_s (staggered start offsets);
* a full minibatch triggers the Fig. 2 round trip — request (τ_req),
  check-out (τ_co), local gradient + sanitize, check-in (τ_ci);
* the server applies updates in arrival order, so staleness emerges
  naturally: a check-in computed against w(t₀) may be applied at t ≫ t₀.

Test error is snapshotted on an iteration grid (iteration = samples
consumed crowd-wide, matching the figures' x axes).

Between stochastic events (message deliveries, outages, churn), a
device's sample arrivals are *fully deterministic*: they land on the
fixed grid ``offset + k/F_s``.  The simulator never schedules per-sample
events — it precomputes each device's arrival-time grid (exact float
accumulation), schedules one heap event at the device's next check-out
trigger, and advances the whole span of arrivals in a single vectorized
:meth:`~repro.core.device.Device.observe_batch` call when a trigger or a
check-out delivery fires.

The round trip itself executes in one of two styles, picked by
``SimulationConfig.resolved_transport()``:

* **event-driven** (``"simulated"``) — each device owns a
  :class:`~repro.network.transport.Link` whose three legs schedule
  deliveries on the event queue (delayed, possibly lossy
  :class:`~repro.network.channel.Channel`\\ s).
  Deliveries travel as ``(bound method, args)`` pairs — no per-message
  closures — and every check-in delivery is its own event, applied in
  heap order.
* **fused** (``"direct"``, auto-selected for zero-delay, outage-free
  configs, and ``"http"``) — no link: the whole round runs
  *synchronously* inside the trigger event via
  :meth:`ServerCore.serve_round
  <repro.core.server_core.ServerCore.serve_round>`.  With nothing able
  to interleave between legs at the same timestamp, the fused path is
  bit-identical to the event-driven one while firing **one** heap event
  per check-out instead of four (see the recorded-trace regression
  suite).  Under ``transport="http", server_url=...`` the server side is
  a **live** :class:`~repro.serve.service.CrowdService` in another
  process: :class:`~repro.serve.remote.RemoteServerCore` stands in for
  the local core, every leg is a ``/v1/checkout`` / ``/v1/checkins``
  HTTP round trip, and — for a server hosting the matching spec — the
  resulting trace is bit-identical to a ``"direct"`` run (floats survive
  the wire format exactly).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.device import Device
from repro.core.protocol import CheckinMessage, CheckoutRequest, CheckoutResponse
from repro.core.server_core import ServerCore
from repro.core.stopping import StopDecision
from repro.data.dataset import Dataset
from repro.evaluation.curves import ErrorCurve
from repro.evaluation.metrics import SnapshotEvaluator, snapshot_grid
from repro.models.base import Model
from repro.network.events import EventQueue
from repro.network.transport import Link, SimulatedTransport
from repro.obs.metrics import NULL_REGISTRY
from repro.optim import paper_sgd
from repro.privacy.budget import split_budget
from repro.simulation.config import SimulationConfig
from repro.simulation.trace import CommunicationStats, RunTrace
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RngFactory


class _DeviceActor:
    """A device plus its precomputed arrival plan and its link.

    ``link`` is the device's event-driven
    :class:`~repro.network.transport.Link`, ``None`` on the fused path.

    ``arrival_times[k]`` is the exact event time of the k-th arrival,
    ``arrival_order[k]`` the dataset row it delivers, and
    ``arrival_limit`` the number of arrivals that happen before the
    device's churn leave time.  ``next_arrival`` tracks how far the
    device has been advanced.
    """

    __slots__ = (
        "device", "dataset", "link", "start_offset", "exhausted",
        "arrival_times", "arrival_order", "arrival_limit", "next_arrival",
        "trigger_index",
    )

    def __init__(
        self,
        device: Device,
        dataset: Dataset,
        link: Optional[Link],
        start_offset: float,
    ):
        self.device = device
        self.dataset = dataset
        self.link = link
        self.start_offset = start_offset
        self.exhausted = False
        self.arrival_times: Optional[np.ndarray] = None
        self.arrival_order: Optional[np.ndarray] = None
        self.arrival_limit = 0
        self.next_arrival = 0
        self.trigger_index = 0


class CrowdSimulator:
    """Simulates one full Crowd-ML run.

    Parameters
    ----------
    model:
        Task definition (shared by server and devices).
    device_datasets:
        One local dataset per device (length = M).
    test_dataset:
        Clean evaluation set for the error curve.
    config:
        All simulation knobs.
    seed:
        Root seed; every random stream (delays, noise, shuffles, offsets)
        derives from it.

    Examples
    --------
    >>> from repro.data import make_mnist_like, iid_partition
    >>> from repro.models import MulticlassLogisticRegression
    >>> import numpy as np
    >>> train, test = make_mnist_like(num_train=200, num_test=100)
    >>> parts = iid_partition(train, 10, np.random.default_rng(0))
    >>> model = MulticlassLogisticRegression(50, 10)
    >>> sim = CrowdSimulator(model, parts, test,
    ...                      SimulationConfig(num_devices=10), seed=0)
    >>> trace = sim.run()
    >>> trace.total_samples_consumed > 0
    True
    """

    def __init__(
        self,
        model: Model,
        device_datasets: List[Dataset],
        test_dataset: Dataset,
        config: SimulationConfig,
        seed: int = 0,
        metrics=None,
    ):
        setup_start = time.perf_counter()
        if len(device_datasets) != config.num_devices:
            raise ConfigurationError(
                f"got {len(device_datasets)} device datasets for "
                f"{config.num_devices} devices"
            )
        self._model = model
        self._device_datasets = device_datasets
        self._test_dataset = test_dataset
        self._config = config
        self._rng_factory = RngFactory(seed)
        self._queue = EventQueue()

        resolved = config.resolved_transport()
        # Fused rounds (zero delay, reliable — checked by the config) run
        # synchronously and need no link; an event-driven run's transport
        # connects one per device.
        self._fused = resolved in ("direct", "http")
        transport = None
        if not self._fused:
            transport = SimulatedTransport(
                self._queue, config.link_delays, config.outage
            )

        total_samples = sum(len(ds) for ds in device_datasets) * config.num_passes
        if resolved == "http":
            # The live server owns the model, optimizer, and stopping
            # config; the local ones must merely describe the same task.
            # (Imported here for layering, not laziness: serve/ depends on
            # core/, so simulation/ must not import it unconditionally.)
            from repro.serve.client import ServiceClient
            from repro.serve.remote import RemoteServerCore

            core = RemoteServerCore(
                ServiceClient(config.server_url, retries=config.http_retries)
            )
            core.validate_model(model)
            self._core = core
        else:
            optimizer = paper_sgd(
                model.init_parameters(),
                learning_rate_constant=config.learning_rate_constant,
                projection_radius=config.projection_radius,
            )
            max_iterations = config.max_iterations
            if max_iterations is None:
                # Every check-in applies >= 1 sample, so a cap one beyond
                # the total sample count can never bind before the data
                # runs out.
                max_iterations = total_samples + 1
            server_config = ServerConfig(
                max_iterations=max_iterations, target_error=config.target_error
            )
            self._core = ServerCore(model, optimizer, server_config)
        self._total_samples = total_samples
        # Section IV-B2 payload sizes are crowd constants: every check-out
        # carries w, every check-in ĝ plus its C + 2 counters.
        self._checkout_floats = model.num_parameters
        self._checkin_floats = model.num_parameters + model.num_classes + 2

        # Crowd constants, built once: every device gets the same objects.
        self._device_config = DeviceConfig(
            batch_size=config.batch_size,
            buffer_capacity=config.batch_size * config.buffer_factor,
            budget=split_budget(config.epsilon, model.num_classes),
            holdout_fraction=config.holdout_fraction,
        )
        self._actors = [
            self._build_actor(m, transport) for m in range(config.num_devices)
        ]

        # The snapshot grid as a stack of Python ints (reversed, popped from
        # the end); the next threshold is cached, so an applied check-in
        # below it costs one comparison.
        self._grid = snapshot_grid(max(total_samples, 1), config.num_snapshots).tolist()
        self._grid.reverse()
        self._next_snapshot = self._grid.pop()
        self._snapshot_eval = SnapshotEvaluator(model, test_dataset)
        self._snapshot_iters: list[int] = []
        self._snapshot_errors: list[float] = []
        self._online_errors: list[np.ndarray] = []
        self._samples_consumed = 0
        self._comm = CommunicationStats()
        self._staleness: list[int] = []
        self._stopped_reason: Optional[str] = None
        # Bound-method handles created once: every schedule/send passes one
        # of these plus an args tuple, so the hot loop allocates neither
        # closures nor fresh bound methods per message.
        self._on_trigger_handler = self._on_trigger
        self._on_request_handler = self._on_request_arrival
        self._on_checkout_handler = self._on_checkout_arrival
        self._on_checkin_handler = self._on_checkin_arrival
        # Obs instrumentation lives only at run boundaries (setup /
        # event-loop / finalize phase timings, whole-run totals) — the
        # per-event and per-sample hot paths are untouched, keeping
        # enabled-mode overhead within the benchmark gate.
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._setup_seconds = time.perf_counter() - setup_start

    @property
    def core(self):
        """The protocol core this run drives: the in-process
        :class:`~repro.core.server_core.ServerCore`, or the
        :class:`~repro.serve.remote.RemoteServerCore` proxy for a live
        service under ``transport="http"``."""
        return self._core

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def events_fired(self) -> int:
        """Heap events executed so far (the throughput benchmark's y axis)."""
        return self._queue.fired

    def _build_actor(self, device_index: int, transport) -> _DeviceActor:
        config = self._config
        device_rng = self._rng_factory.generator("device", device_index)
        # Local cores mint the token in-process; a RemoteServerCore routes
        # the same call through POST /v1/join on the live service.
        token = self._core.register_device(device_index)
        batch_policy = (
            config.batch_policy_factory()
            if config.batch_policy_factory is not None
            else None
        )
        device = Device(
            device_index, self._model, self._device_config, token, device_rng,
            batch_policy=batch_policy,
        )

        link = None
        if transport is not None:
            network_rng = self._rng_factory.generator("network", device_index)
            link = transport.connect(device_index, network_rng)
        offset_rng = self._rng_factory.generator("offset", device_index)
        # Stagger device start times over one full minibatch period: real
        # devices join a task at arbitrary times, so their check-in phases
        # are desynchronized.  (With a common start, all M devices fill
        # their minibatches simultaneously and every round delivers M
        # synchronized check-ins — inflating gradient staleness to ~M/2
        # independent of the network delay.)
        start_offset = float(
            offset_rng.uniform(0.0, config.batch_size / config.sampling_rate)
        )
        actor = _DeviceActor(
            device, self._device_datasets[device_index], link, start_offset,
        )
        self._plan_arrivals(actor, device_index)
        return actor

    def _plan_arrivals(self, actor: _DeviceActor, device_index: int) -> None:
        """Precompute the device's deterministic arrival grid.

        Arrival k fires at the float obtained by adding ``1/F_s`` to the
        previous arrival time, starting from ``start_offset (+ join
        time)`` — ``np.add.accumulate`` performs exactly that
        left-to-right IEEE-754 accumulation, so the grid is bit-identical
        to the retired one-event-per-sample scheduler's event times (the
        recorded-trace suite pins this).  Per-pass shuffles draw from the
        dedicated "shuffle" stream in pass order, and arrivals at or past
        the churn leave time are cut off exactly as the per-event leave
        check would.
        """
        config = self._config
        dataset = actor.dataset
        shuffle_rng = self._rng_factory.generator("shuffle", device_index)
        per_pass = len(dataset)
        if per_pass == 0:
            actor.arrival_times = np.empty(0, dtype=np.float64)
            actor.arrival_order = np.empty(0, dtype=np.int64)
            actor.arrival_limit = 0
            return
        actor.arrival_order = np.concatenate(
            [shuffle_rng.permutation(per_pass) for _ in range(config.num_passes)]
        )
        total = actor.arrival_order.shape[0]
        first = actor.start_offset
        if config.churn is not None:
            first = first + float(config.churn.join_times[device_index])
        steps = np.empty(total, dtype=np.float64)
        steps[0] = 0.0 + first
        steps[1:] = 1.0 / config.sampling_rate
        actor.arrival_times = np.add.accumulate(steps)
        actor.arrival_limit = total
        if config.churn is not None:
            # A device goes silent at its first arrival with now >= leave;
            # only arrivals strictly before the leave time are observed.
            actor.arrival_limit = int(
                np.searchsorted(
                    actor.arrival_times,
                    float(config.churn.leave_times[device_index]),
                    side="left",
                )
            )

    # ------------------------------------------------------------------ #
    # Event handlers — batch arrivals                                    #
    # ------------------------------------------------------------------ #
    #
    # Invariant: an active device has exactly one pending progress event —
    # either a trigger (the arrival that fills its minibatch) or an
    # in-flight check-out round trip.  Arrivals between progress events
    # are advanced lazily in one vectorized step, so the heap sees
    # O(check-ins) events instead of O(total samples).

    def _advance_arrivals(self, actor: _DeviceActor, end: int) -> None:
        """Deliver arrivals ``[next_arrival, end)`` to the device at once."""
        end = min(end, actor.arrival_limit)
        if end <= actor.next_arrival:
            return
        rows = actor.arrival_order[actor.next_arrival:end]
        dataset = actor.dataset
        actor.device.observe_rows(dataset.features, dataset.labels, rows)
        actor.next_arrival = end

    def _advance_arrivals_until(self, actor: _DeviceActor, time: float) -> None:
        """Deliver every arrival strictly before ``time``.

        Matches per-event order for continuous or zero delay
        distributions, where a sample arriving at *exactly* a delivery's
        timestamp has probability zero (see
        ``SimulationConfig.transport``).
        """
        end = int(np.searchsorted(actor.arrival_times, time, side="left"))
        self._advance_arrivals(actor, end)

    def _schedule_trigger(self, actor: _DeviceActor) -> None:
        """Schedule the arrival that completes the device's next minibatch.

        From a quiescent device state (no request in flight), the next
        check-out trigger is deterministic: it fires at the arrival that
        lifts the buffer to the current batch size (or at the very next
        arrival, when a failed check-out left the buffer already full).
        Exhausted or churned-out devices schedule nothing and go silent.
        """
        if self._stopped_reason is not None:
            return
        device = actor.device
        needed = max(device.current_batch_size - device.buffer_size, 1)
        index = actor.next_arrival + needed - 1
        if index >= actor.arrival_limit:
            actor.exhausted = True
            return
        actor.trigger_index = index
        self._queue.schedule(
            actor.arrival_times.item(index), self._on_trigger_handler, (actor,)
        )

    def _on_trigger(self, actor: _DeviceActor) -> None:
        if self._stopped_reason is not None:
            return
        self._advance_arrivals(actor, actor.trigger_index + 1)
        if self._fused:
            self._run_fused_round(actor)
            return
        delivered = self._send_checkout_request(actor)
        if not delivered:
            # Remark 1: the request was lost in an outage; the buffer is
            # intact and the very next arrival re-triggers.
            self._schedule_trigger(actor)

    # ------------------------------------------------------------------ #
    # The check-out/check-in round trip — event-driven transport         #
    # ------------------------------------------------------------------ #

    def _send_checkout_request(self, actor: _DeviceActor) -> bool:
        actor.device.mark_checkout_requested()
        request = CheckoutRequest(
            device_id=actor.device.device_id,
            token=actor.device.token,
            request_time=self._queue.now,
        )
        self._comm.checkout_requests += 1
        return actor.link.request.send(
            self._on_request_handler,
            payload_floats=request.payload_floats,
            on_drop=actor.device.on_checkout_failed,
            args=(actor, request),
        )

    def _on_request_arrival(self, actor: _DeviceActor, request: CheckoutRequest) -> None:
        if self._stopped_reason is not None or self._core.stopped:
            actor.device.on_checkout_failed()
            self._resume_after_failed_checkout(actor)
            return
        response = self._core.handle_checkout(request)
        self._comm.downlink_floats += self._checkout_floats
        delivered = actor.link.checkout.send(
            self._on_checkout_handler,
            payload_floats=self._checkout_floats,
            on_drop=actor.device.on_checkout_failed,
            args=(actor, response),
        )
        if not delivered:
            self._resume_after_failed_checkout(actor)

    def _resume_after_failed_checkout(self, actor: _DeviceActor) -> None:
        """Restart the trigger chain after a lost check-out.

        The arrivals buffered while the request was in flight are
        advanced first (they drew their holdout randomness before the
        failure), then the next arrival re-triggers.
        """
        if self._stopped_reason is not None:
            return
        self._advance_arrivals_until(actor, self._queue.now)
        self._schedule_trigger(actor)

    def _on_checkout_arrival(self, actor: _DeviceActor, response: CheckoutResponse) -> None:
        if self._stopped_reason is not None:
            return
        # Samples that arrived while the check-out was in flight were
        # buffered (and consumed holdout randomness) before this delivery
        # fired.
        self._advance_arrivals_until(actor, self._queue.now)
        self._device_round(actor, response)

    def _device_round(
        self, actor: _DeviceActor, response: CheckoutResponse
    ) -> Optional[CheckinMessage]:
        """Device side of a round: Routines 2 + 3 on a delivered check-out.

        Returns the check-in — already sent on the device's link when it
        has one (the fused path hands it to ``serve_round`` instead) — or
        ``None`` when a racing check-out left nothing to compute on.
        """
        self._comm.checkouts_delivered += 1
        device = actor.device
        if device.buffer_size == 0:
            # Buffer was consumed by a racing check-out; nothing to do.
            device.on_checkout_failed()
            self._schedule_trigger(actor)
            return None
        result = device.complete_checkout(
            response.parameters, response.server_iteration
        )
        self._online_errors.append(result.per_sample_errors)
        message = result.message
        self._comm.uplink_floats += self._checkin_floats
        if actor.link is not None:
            actor.link.checkin.send(
                self._on_checkin_handler,
                payload_floats=self._checkin_floats,
                args=(actor, message),
            )
        # The buffer is empty again (and an adaptive policy may have just
        # changed b): the next trigger is deterministic from here.
        self._schedule_trigger(actor)
        return message

    def _on_checkin_arrival(self, actor: _DeviceActor, message: CheckinMessage) -> None:
        if self._stopped_reason is not None or self._core.stopped:
            return
        self._staleness.append(self._core.iteration - message.checkout_iteration)
        self._core.handle_checkin(message)
        self._book_applied(message.num_samples, self._core.stopping_decision())

    def _book_applied(self, samples: int, stop: StopDecision) -> None:
        """Book one applied check-in: counters, due snapshots, the stop verdict."""
        self._comm.checkins_delivered += 1
        self._samples_consumed += samples
        if self._samples_consumed >= self._next_snapshot:
            self._maybe_snapshot()
        if stop.stopped:
            self._stopped_reason = stop.reason.value

    # ------------------------------------------------------------------ #
    # The check-out/check-in round trip — fused                          #
    # ------------------------------------------------------------------ #

    def _run_fused_round(self, actor: _DeviceActor) -> None:
        """One whole Fig. 2 round trip, synchronously, via ``serve_round``.

        Zero delay and a reliable network mean nothing can interleave
        between the three legs, so executing them inline is equivalent to
        scheduling them — with zero heap events and zero closures.  All
        bookkeeping happens in the same order as the event-driven
        handlers.
        """
        device = actor.device
        device.mark_checkout_requested()
        request = CheckoutRequest(device.device_id, device.token, self._queue.now)
        self._comm.checkout_requests += 1
        outcome = self._core.serve_round(
            (request,), self._complete_fused_round, (actor,)
        )
        if outcome.responses[0] is None:
            # Stopped or rejected before the checkout was served.  On the
            # local fused path this cannot happen mid-run (a stop always
            # surfaces through the check-in that caused it); on the remote
            # path it can — the live server may have stopped between
            # rounds (or under a concurrent client) and reject the
            # checkout — so record the stop before Remark 1 recovery,
            # which also halts the trigger chain.
            if outcome.stop.stopped:
                self._stopped_reason = outcome.stop.reason.value
            device.on_checkout_failed()
            self._schedule_trigger(actor)
            return
        message = outcome.messages[0]
        if message is None:
            return  # racing checkout: _complete_fused_round rescheduled
        if outcome.acks[0] is None:
            # The check-in was sent but rejected — only possible on the
            # remote path, when the live server stopped under a
            # concurrent client between our checkout and check-in.  Not
            # an applied update: drop the optimistic staleness entry and
            # record the stop instead of counting a phantom delivery.
            self._staleness.pop()
            if outcome.stop.stopped:
                self._stopped_reason = outcome.stop.reason.value
            return
        self._book_applied(message.num_samples, outcome.stop)

    def _complete_fused_round(
        self, response: CheckoutResponse, actor: _DeviceActor
    ) -> Optional[CheckinMessage]:
        """Device side of a fused round, as ``serve_round``'s callback."""
        self._comm.downlink_floats += self._checkout_floats
        message = self._device_round(actor, response)
        if message is not None:
            # Applied immediately after return: zero interleaved updates.
            self._staleness.append(
                self._core.iteration - message.checkout_iteration
            )
        return message

    # ------------------------------------------------------------------ #
    # Snapshots and run loop                                             #
    # ------------------------------------------------------------------ #

    def _maybe_snapshot(self) -> None:
        while self._samples_consumed >= self._next_snapshot:
            self._snapshot_iters.append(self._samples_consumed)
            self._snapshot_errors.append(
                self._snapshot_eval.error(self._core.parameters)
            )
            self._next_snapshot = self._grid.pop() if self._grid else math.inf

    def run(self) -> RunTrace:
        """Execute the simulation to completion and return its trace."""
        loop_start = time.perf_counter()
        for actor in self._actors:
            self._schedule_trigger(actor)
        while self._queue.step():
            pass

        # Break the simulator -> handle -> simulator cycles: a finished run
        # (and its M devices) is freed by refcount, not a gen-2 collection.
        self._on_trigger_handler = self._on_request_handler = None
        self._on_checkout_handler = self._on_checkin_handler = None
        loop_seconds = time.perf_counter() - loop_start
        finalize_start = time.perf_counter()

        if self._stopped_reason is None:
            self._stopped_reason = "data_exhausted"

        if not self._snapshot_iters or self._snapshot_iters[-1] != self._samples_consumed:
            if self._samples_consumed > 0:
                self._snapshot_iters.append(self._samples_consumed)
                self._snapshot_errors.append(
                    self._snapshot_eval.error(self._core.parameters)
                )

        iters = np.asarray(self._snapshot_iters, dtype=np.int64)
        errors = np.asarray(self._snapshot_errors, dtype=np.float64)
        if iters.size:
            _, first_idx = np.unique(iters, return_index=True)
            curve = ErrorCurve(iters[first_idx], errors[first_idx])
        else:
            curve = ErrorCurve(
                np.array([1], dtype=np.int64),
                np.array([self._snapshot_eval.error(self._core.parameters)]),
            )

        online = (
            np.concatenate(self._online_errors)
            if self._online_errors
            else np.zeros(0, dtype=bool)
        )
        per_sample_epsilon = max(
            (actor.device.accountant.spend().per_sample_epsilon for actor in self._actors),
            default=0.0,
        )
        if not self._fused:
            self._comm.messages_dropped = sum(
                actor.link.messages_dropped for actor in self._actors
            )

        # Run-boundary metrics: one counter bump and a few gauge writes
        # per run, never per event.
        metrics = self._metrics
        metrics.counter("sim_runs_total").inc()
        metrics.counter("sim_events_total").inc(self._queue.fired)
        metrics.counter("sim_samples_total").inc(self._samples_consumed)
        metrics.gauge("sim_setup_seconds").set(self._setup_seconds)
        metrics.gauge("sim_event_loop_seconds").set(loop_seconds)
        metrics.gauge("sim_finalize_seconds").set(
            time.perf_counter() - finalize_start
        )
        if self._samples_consumed:
            metrics.gauge("sim_events_per_sample").set(
                self._queue.fired / self._samples_consumed
            )

        return RunTrace(
            curve=curve,
            online_errors=online,
            final_parameters=self._core.parameters,
            total_samples_consumed=self._samples_consumed,
            server_iterations=self._core.iteration,
            communication=self._comm,
            per_sample_epsilon=per_sample_epsilon,
            stop_reason=self._stopped_reason,
            staleness=np.asarray(self._staleness, dtype=np.int64),
        )
