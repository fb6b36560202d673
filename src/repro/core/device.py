"""Device runtime — Algorithm 1 (Routines 1-3).

A :class:`Device` buffers locally generated samples (Routine 1), and when a
minibatch is full it asks for a check-out.  Once the current parameters
arrive, :meth:`Device.complete_checkout` runs Routine 2 — predict, count
errors and labels, compute the averaged regularized gradient — and
Routine 3 — sanitize everything, with the crowd's shared noise calibration
and the device's own rng — returning the
:class:`~repro.core.protocol.CheckinMessage` to upload.

The device is transport-agnostic: the simulator (or a real network stack)
decides how requests and messages travel.  Failed check-outs simply leave
the buffer intact and the device retries at the next opportunity
(Remark 1).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.core.config import DeviceConfig
from repro.core.protocol import CheckinMessage
from repro.core.sanitizer import CheckinSanitizer
from repro.privacy.accountant import PrivacyAccountant
from repro.models.base import Model
from repro.utils.exceptions import ConfigurationError, ProtocolError

_FLOAT64 = np.dtype(np.float64)


class CheckinResult(NamedTuple):
    """Output of one completed check-out/check-in cycle.

    Besides the wire message, exposes the *local, non-released* per-sample
    prediction outcomes — what the on-phone UI (and Fig. 3's time-averaged
    error curve) observes.  These never leave the device unsanitized.
    (A NamedTuple: one is built per check-in on the hot path.)
    """

    message: CheckinMessage
    per_sample_errors: np.ndarray  # bool, aligned with consumed samples
    consumed_labels: np.ndarray


class Device:
    """One smart device participating in the crowd-learning task.

    Parameters
    ----------
    device_id:
        Unique integer identity.
    model:
        The classifier family (shared task definition with the server).
    config:
        Algorithm 1 inputs (b, B, privacy levels, holdout fraction).
    token:
        Authentication token from the server's registry.
    rng:
        Device-local randomness (noise, holdout selection).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.core.config import DeviceConfig
    >>> model = MulticlassLogisticRegression(num_features=2, num_classes=2)
    >>> config = DeviceConfig.default(batch_size=2, num_classes=2)
    >>> device = Device(0, model, config, token="t",
    ...                 rng=np.random.default_rng(0))
    >>> device.observe(np.array([0.5, 0.5]), 1)
    False
    >>> device.observe(np.array([0.2, 0.8]), 0)
    True
    >>> result = device.complete_checkout(np.zeros(4), server_iteration=0)
    >>> result.message.num_samples
    2
    """

    def __init__(
        self,
        device_id: int,
        model: Model,
        config: DeviceConfig,
        token: str,
        rng: np.random.Generator,
        batch_policy: Optional["BatchPolicy"] = None,
    ):
        if config.budget.num_classes != model.num_classes:
            raise ConfigurationError(
                f"budget num_classes ({config.budget.num_classes}) != "
                f"model num_classes ({model.num_classes})"
            )
        self._device_id = int(device_id)
        self._model = model
        self._config = config
        self._token = str(token)
        self._rng = rng
        self._sanitizer = CheckinSanitizer(model, config.budget, rng)
        self._accountant = PrivacyAccountant()
        self._batch_policy = batch_policy
        self._current_batch_size = config.batch_size
        self._last_checkout_iteration: Optional[int] = None

        # Samples land in ndarray slots instead of growing Python lists
        # (Routine 1 is the hot path of every simulated run, and check-out
        # then needs no np.stack).  Allocation starts at one minibatch —
        # a buffer only exceeds b while a check-out is in flight, and
        # _ensure_allocated doubles it then, up to the logical capacity B;
        # allocating all of B = buffer_factor × b up front would waste
        # ~B/b× the memory at crowd scale.
        self._capacity = int(config.buffer_capacity)
        self._num_classes = model.num_classes
        self._sample_shape = (model.num_features,)
        self._is_classification = model.num_classes > 1
        self._label_dtype = np.dtype(np.int64 if self._is_classification else np.float64)
        allocated = min(int(config.batch_size), self._capacity)
        self._feature_buffer = np.empty((allocated, model.num_features), dtype=np.float64)
        self._label_buffer = np.empty(allocated, dtype=self._label_dtype)
        self._holdout_buffer = np.zeros(allocated, dtype=bool)
        self._buffered = 0
        self._awaiting_checkout = False
        self._failed_checkouts = 0
        self._samples_observed = 0
        self._samples_dropped = 0
        self._checkins_completed = 0

    @property
    def device_id(self) -> int:
        return self._device_id

    @property
    def token(self) -> str:
        return self._token

    @property
    def config(self) -> DeviceConfig:
        return self._config

    @property
    def accountant(self) -> PrivacyAccountant:
        """Running privacy spend of this device's check-ins.  Its
        ``per_sample_epsilon`` assumes each sample is fed in once; a caller
        that re-feeds samples multiplies a sample's true spend."""
        return self._accountant

    @property
    def buffer_size(self) -> int:
        """n_s — samples currently buffered."""
        return self._buffered

    @property
    def samples_observed(self) -> int:
        """Total samples ever offered to Routine 1."""
        return self._samples_observed

    @property
    def samples_dropped(self) -> int:
        """Samples rejected because the buffer hit capacity B."""
        return self._samples_dropped

    @property
    def checkins_completed(self) -> int:
        return self._checkins_completed

    @property
    def awaiting_checkout(self) -> bool:
        """True while a check-out request is in flight."""
        return self._awaiting_checkout

    @property
    def current_batch_size(self) -> int:
        """The b in force right now (fixed unless a batch policy adapts it)."""
        return self._current_batch_size

    def _ensure_allocated(self, needed: int) -> None:
        """Grow the slot arrays geometrically to hold ``needed`` samples.

        Pure reallocation — no values or RNG draws change, so batching
        equivalence is unaffected.  ``needed`` never exceeds capacity B.
        """
        allocated = self._label_buffer.shape[0]
        if needed <= allocated:
            return
        new_size = min(max(needed, 2 * allocated), self._capacity)
        features = np.empty((new_size, self._model.num_features), dtype=np.float64)
        features[:self._buffered] = self._feature_buffer[:self._buffered]
        labels = np.empty(new_size, dtype=self._label_dtype)
        labels[:self._buffered] = self._label_buffer[:self._buffered]
        holdout = np.zeros(new_size, dtype=bool)
        holdout[:self._buffered] = self._holdout_buffer[:self._buffered]
        self._feature_buffer = features
        self._label_buffer = labels
        self._holdout_buffer = holdout

    @property
    def wants_checkout(self) -> bool:
        """Routine 1's trigger: n_s ≥ b and no request already pending."""
        return (
            not self._awaiting_checkout
            and self._buffered >= self._current_batch_size
        )

    def observe(self, features: np.ndarray, label: int) -> bool:
        """Routine 1: buffer one sample; returns True if a check-out is due.

        Samples arriving with a full buffer (n_s ≥ B) are dropped — the
        "stop collection to prevent resource outage" branch.
        """
        self._samples_observed += 1
        if self._buffered >= self._capacity:
            self._samples_dropped += 1
            return self.wants_checkout
        # An ndarray of any dtype is cast by the slot write below, as
        # np.asarray(..., dtype=np.float64) would cast it.
        if type(features) is not np.ndarray:
            features = np.asarray(features, dtype=np.float64)
        if features.shape != self._sample_shape:
            raise ConfigurationError(
                f"sample must have shape {self._sample_shape}, "
                f"got {features.shape}"
            )
        # Classification labels are integer class indices; regression
        # models (num_classes == 1) carry real-valued targets.
        if self._is_classification:
            label = int(label)
            if not 0 <= label < self._num_classes:
                raise ConfigurationError(
                    f"label must lie in [0, {self._num_classes}), got {label}"
                )
        else:
            label = float(label)
        slot = self._buffered
        if slot == self._label_buffer.shape[0]:
            self._ensure_allocated(slot + 1)
        self._feature_buffer[slot] = features
        self._label_buffer[slot] = label
        if self._config.holdout_fraction > 0.0:
            self._holdout_buffer[slot] = (
                float(self._rng.random()) < self._config.holdout_fraction
            )
        self._buffered = slot + 1
        return self.wants_checkout

    def observe_batch(self, features: np.ndarray, labels: np.ndarray) -> bool:
        """Routine 1 over a whole batch of arrivals at once.

        Equivalent — including bit-identical holdout RNG consumption — to
        calling :meth:`observe` once per row: the first ``B − n_s`` rows
        are buffered (one uniform holdout draw each, taken as a single
        ``rng.random(k)`` block), the overflow is dropped, and the return
        value is the final ``wants_checkout``.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self._model.num_features:
            raise ConfigurationError(
                f"batch must have shape (n, {self._model.num_features}), "
                f"got {features.shape}"
            )
        labels = np.asarray(labels)
        count = features.shape[0]
        if labels.shape != (count,):
            raise ConfigurationError(
                f"labels must have shape ({count},), got {labels.shape}"
            )
        if self._is_classification and count and (
            labels.min() < 0 or labels.max() >= self._model.num_classes
        ):
            raise ConfigurationError(
                f"labels must lie in [0, {self._model.num_classes}), got "
                f"{labels.min()} … {labels.max()}"
            )
        start, take = self._admit_arrivals(count)
        if take > 0:
            end = start + take
            self._feature_buffer[start:end] = features[:take]
            self._label_buffer[start:end] = labels[:take]
            self._commit_arrivals(start, end, take)
        return self.wants_checkout

    def observe_rows(
        self, features: np.ndarray, labels: np.ndarray, rows: np.ndarray
    ) -> bool:
        """Routine 1 over arrivals given as row indices of a source dataset.

        Equivalent to ``observe_batch(features[rows], labels[rows])`` but
        gathers the kept rows straight into the buffer slots — one copy
        instead of a fancy-index copy followed by a buffer write.  Falls
        back to :meth:`observe_batch` when dtypes don't allow a direct
        ``np.take(..., out=...)`` gather.
        """
        if (features.dtype is not _FLOAT64
                or labels.dtype is not self._label_dtype
                or features.shape[1:] != self._sample_shape):
            return self.observe_batch(features[rows], labels[rows])
        start, take = self._admit_arrivals(rows.shape[0])
        if take > 0:
            end = start + take
            if take == 1:
                # b = 1 hot path: a plain row assignment beats the take
                # machinery for a single gather.
                row = rows[0]
                self._feature_buffer[start] = features[row]
                self._label_buffer[start] = labels[row]
            else:
                kept = rows[:take]
                np.take(features, kept, axis=0, out=self._feature_buffer[start:end])
                np.take(labels, kept, out=self._label_buffer[start:end])
            self._commit_arrivals(start, end, take)
        return self.wants_checkout

    def _admit_arrivals(self, count: int) -> tuple[int, int]:
        """Routine 1 admission for ``count`` arrivals: first ``take`` slots
        are buffered, the overflow is dropped.  Returns (start, take)."""
        self._samples_observed += count
        start = self._buffered
        take = min(count, self._capacity - start)
        if take < count:
            self._samples_dropped += count - take
        if take > 0:
            self._ensure_allocated(start + take)
        return start, take

    def _commit_arrivals(self, start: int, end: int, take: int) -> None:
        """Finish admission of slots ``[start, end)``: holdout marks (one
        RNG block, bit-equal to ``take`` sequential scalar draws) and the
        buffer count.  Without a holdout the marks are never read, so the
        buffer keeps its all-False fill and is not written."""
        if self._config.holdout_fraction > 0.0:
            self._holdout_buffer[start:end] = (
                self._rng.random(take) < self._config.holdout_fraction
            )
        self._buffered = end

    def mark_checkout_requested(self) -> None:
        """Record that a check-out request left the device."""
        if self._awaiting_checkout:
            raise ProtocolError(f"device {self._device_id} already awaiting check-out")
        self._awaiting_checkout = True

    def on_checkout_failed(self) -> None:
        """Remark 1: the request/response was lost; keep collecting, retry."""
        self._awaiting_checkout = False
        self._failed_checkouts += 1

    @property
    def failed_checkouts(self) -> int:
        return self._failed_checkouts

    def complete_checkout(
        self, parameters: np.ndarray, server_iteration: int, checkin_seq: int = -1
    ) -> CheckinResult:
        """Routines 2 + 3: consume the buffer, return the sanitized check-in.

        ``parameters`` is the checked-out w; ``server_iteration`` tags the
        check-in so delay-aware servers know how stale the gradient is.
        ``checkin_seq`` is the message's Remark 1 sequence number — a
        remote device stamps one so a re-sent check-in is applied once;
        ``-1`` (the simulator's in-process path) means unnumbered.
        """
        self._awaiting_checkout = False
        if self._batch_policy is not None:
            # The server-iteration counter is public, so adapting b to the
            # observed interleaving costs no privacy (§IV-B3 refinement).
            if self._last_checkout_iteration is not None:
                interleaved = max(
                    int(server_iteration) - self._last_checkout_iteration - 1, 0
                )
                proposed = self._batch_policy.next_batch_size(
                    self._current_batch_size, interleaved
                )
                self._current_batch_size = int(
                    min(max(proposed, 1), self._config.buffer_capacity)
                )
            self._last_checkout_iteration = int(server_iteration)
        if not self._buffered:
            raise ProtocolError(
                f"device {self._device_id} has no buffered samples to process"
            )
        if type(parameters) is not np.ndarray or parameters.dtype is not _FLOAT64:
            parameters = np.asarray(parameters, dtype=np.float64)
        num_samples = self._buffered
        # Views over the preallocated buffers; labels are copied because
        # they outlive this call inside the returned CheckinResult.
        features = self._feature_buffer[:num_samples]
        labels = self._label_buffer[:num_samples].copy()

        # Remark 2: with a holdout, the error statistic comes from held-out
        # samples only, and their gradients stay out of the average.
        # (holdout is identically False when the fraction is 0 — skip the
        # slice and the two reductions on that hot path.)
        if self._config.holdout_fraction > 0.0 and (
            (holdout := self._holdout_buffer[:num_samples]).any()
            and (~holdout).any()
        ):
            errors = self._model.prediction_errors(parameters, features, labels)
            error_count = np.count_nonzero(errors[holdout])
            grad_features = features[~holdout]
            averaged_gradient = self._model.gradient(
                parameters, grad_features, labels[~holdout]
            )
            gradient_samples = grad_features.shape[0]
        else:
            # Same rows feed both oracles: use the fused single-pass form.
            # The buffers were validated sample by sample in Routine 1, so
            # the oracle skips re-validation (trusted fast path).
            errors, averaged_gradient = self._model.errors_and_gradient(
                parameters, features, labels, validate=False
            )
            error_count = np.count_nonzero(errors)
            gradient_samples = num_samples
        if self._is_classification:
            label_counts = np.bincount(labels, minlength=self._num_classes)
        else:
            # Regression has no label histogram; report the sample count in
            # the single "class" slot so monitoring stays well-defined.
            label_counts = np.array([num_samples], dtype=np.int64)

        sanitized = self._sanitizer.sanitize(
            averaged_gradient, error_count, label_counts, gradient_samples
        )
        # The sums come precomputed from the crowd-shared calibration.
        self._accountant.charge_checkin(sanitized.release_sums)

        message = CheckinMessage(
            device_id=self._device_id,
            token=self._token,
            gradient=sanitized.gradient,
            num_samples=num_samples,
            noisy_error_count=sanitized.error_count,
            noisy_label_counts=sanitized.label_counts,
            checkout_iteration=int(server_iteration),
            checkin_seq=checkin_seq,
        )

        # Reset n_s = 0, n_e = 0, n_y^k = 0 (end of Routine 2).
        self._buffered = 0
        self._checkins_completed += 1

        return CheckinResult(message, errors, labels)
