"""Device Routine 3: sanitize check-in statistics before they leave.

Bundles the three mechanisms of Eqs. (10)-(12): Laplace noise on the
averaged gradient calibrated to the model's minibatch sensitivity, and
discrete Laplace noise on the misclassification count and each label count.

Everything in the routine that does not depend on the device's RNG — the
noise scale for a realized minibatch size ``n_s`` (≥ b, sensitivity
``S = 4/n_s``), the two geometric success probabilities, the accounting
records and their sums — is identical for every device of a crowd, so it
lives once, in a :class:`SanitizerCalibration` shared by all sanitizers
built for the same ``(model, budget, gradient_noise, gaussian_delta)``.
A :class:`CheckinSanitizer` is that calibration plus the device's ``rng``;
``sanitize`` is the draws and nothing else, so a device's first round
costs what its hundredth does.  The draws are three RNG calls at most
(a level of ε = ∞ skips its own): the gradient noise, then one
:func:`~repro.privacy.discrete_laplace.discrete_laplace_noise` call for
the error count and one for the label counts, each drawing both of its
geometric vectors at once.

Footnote 1's (ε, δ) variant is available by constructing the sanitizer
with ``gradient_noise="gaussian"``: the gradient noise becomes the
analytic Gaussian mechanism's, calibrated with the same 4/n_s bound (valid
for L2 since ‖·‖₂ ≤ ‖·‖₁).
"""

from __future__ import annotations

import weakref
from typing import NamedTuple, Tuple, Union

import numpy as np

from repro.models.base import Model
from repro.privacy.accountant import checkin_sums
from repro.privacy.budget import PrivacyBudget
from repro.privacy.discrete_laplace import (
    DiscreteLaplaceMechanism,
    discrete_laplace_noise,
)
from repro.privacy.gaussian import GaussianMechanism
from repro.privacy.laplace import LaplaceMechanism
from repro.privacy.mechanism import AggregatedRelease, ReleaseRecord
from repro.utils.exceptions import ConfigurationError


class SanitizedCheckin(NamedTuple):
    """The outputs of Device Routine 3 plus accounting records.

    ``releases`` is the expanded per-release view carried on the wire
    message; ``release_groups`` is the same information run-length encoded
    (gradient, error, C× label) and ``release_sums`` its (ε, δ, count)
    totals, for the accountant's O(1) charge path.  All three are the
    shared calibration's objects, never per-check-in allocations.
    (A NamedTuple: one is built per check-in.)
    """

    gradient: np.ndarray
    error_count: int
    label_counts: np.ndarray
    releases: Tuple[ReleaseRecord, ...]
    release_groups: Tuple[AggregatedRelease, ...]
    release_sums: Tuple[float, float, int]


class SanitizerCalibration:
    """The RNG-independent half of Routine 3, one per crowd.

    Levels are validated once, through the mechanism constructors.  Holds
    no reference to the model (:func:`shared_calibration` keys weakly on
    it), so methods that need the sensitivity oracle take it.
    """

    def __init__(self, budget: PrivacyBudget, gradient_noise: str, gaussian_delta: float):
        if gradient_noise not in ("laplace", "gaussian"):
            raise ConfigurationError(
                f"gradient_noise must be 'laplace' or 'gaussian', got "
                f"{gradient_noise!r}"
            )
        self.budget = budget
        self.gradient_noise = gradient_noise
        self.gaussian_delta = gaussian_delta
        error_mechanism = DiscreteLaplaceMechanism(budget.epsilon_error)
        label_mechanism = DiscreteLaplaceMechanism(budget.epsilon_label)
        self.error_success = error_mechanism.success_probability
        self.label_success = label_mechanism.success_probability
        # Count releases never vary (fixed ε, sensitivity 1).
        self._error_release = error_mechanism.record(1.0)
        self._label_release = label_mechanism.record(1.0)
        #: (n_s, number of label counts) -> (gradient noise scale, releases,
        #: release_groups, release_sums); see :meth:`calibrate`.
        self.rounds: dict = {}

    def gradient_mechanism(self, sensitivity: float, rng=None):
        """A gradient mechanism calibrated to ``sensitivity``."""
        epsilon = self.budget.epsilon_gradient
        if self.gradient_noise == "gaussian":
            return GaussianMechanism(epsilon, self.gaussian_delta, sensitivity, rng)
        return LaplaceMechanism(epsilon, sensitivity, rng)

    def calibrate(self, model: Model, num_samples: int, num_labels: int) -> tuple:
        """Build and remember the ``rounds`` entry for one realized round:
        the Laplace ``S/ε_g`` or Gaussian σ (0 = no noise) and the three
        accounting views :class:`SanitizedCheckin` carries."""
        sensitivity = model.gradient_sensitivity(num_samples)
        mechanism = self.gradient_mechanism(sensitivity)
        gaussian = self.gradient_noise == "gaussian"
        scale = mechanism.sigma if gaussian else mechanism.scale
        gradient_release = mechanism.record(sensitivity)
        groups = (
            AggregatedRelease(gradient_release, 1),
            AggregatedRelease(self._error_release, 1),
        )
        if num_labels:
            groups += (AggregatedRelease(self._label_release, num_labels),)
        releases = (gradient_release, self._error_release)
        releases += (self._label_release,) * num_labels
        entry = (scale, releases, groups, checkin_sums(groups))
        self.rounds[num_samples, num_labels] = entry
        return entry


#: model -> {(budget, gradient_noise, gaussian_delta): calibration}.  Weak
#: on the model, so a crowd's calibrations die with its task definition.
#: Every entry is a pure function of its key: threads racing on a miss
#: only compute the same values twice.
_CALIBRATIONS = weakref.WeakKeyDictionary()


def shared_calibration(model: Model, *key) -> SanitizerCalibration:
    """The one calibration every sanitizer built on ``model`` with the same
    ``(budget, gradient_noise, gaussian_delta)`` shares."""
    per_model = _CALIBRATIONS.setdefault(model, {})
    calibration = per_model.get(key)
    if calibration is None:
        calibration = per_model[key] = SanitizerCalibration(*key)
    return calibration


class CheckinSanitizer:
    """Applies Eqs. (10)-(12) to one device's check-in statistics.

    Parameters
    ----------
    model:
        Supplies the gradient-sensitivity oracle (4/b for logistic).
    budget:
        The per-sample ε split (ε_g, ε_e, ε_yk).
    rng:
        Device-local noise source.
    """

    def __init__(
        self,
        model: Model,
        budget: PrivacyBudget,
        rng: np.random.Generator,
        *,
        gradient_noise: str = "laplace",
        gaussian_delta: float = 1e-6,
    ):
        self._model = model
        self._rng = rng
        self._calibration = shared_calibration(
            model, budget, gradient_noise, float(gaussian_delta)
        )
        self._draw_gradient_noise = (
            rng.normal if gradient_noise == "gaussian" else rng.laplace
        )
        # gradient_mechanism()'s rng-bound views; sanitize never reads them.
        self._bound_mechanisms: dict = {}

    @property
    def gradient_noise(self) -> str:
        """Which mechanism sanitizes gradients: "laplace" or "gaussian"."""
        return self._calibration.gradient_noise

    def gradient_mechanism(
        self, num_samples: int
    ) -> Union[LaplaceMechanism, GaussianMechanism]:
        """Noise mechanism calibrated to this minibatch's sensitivity and
        drawing from this sanitizer's rng, memoized per ``num_samples``.

        For inspection: :meth:`sanitize` draws the same noise straight from
        the shared calibration's scale, without building one.
        """
        mechanism = self._bound_mechanisms.get(num_samples)
        if mechanism is None:
            mechanism = self._bound_mechanisms[num_samples] = (
                self._calibration.gradient_mechanism(
                    self._model.gradient_sensitivity(num_samples), self._rng))
        return mechanism

    def sanitize(
        self,
        averaged_gradient: np.ndarray,
        error_count: int,
        label_counts: np.ndarray,
        num_samples: int,
    ) -> SanitizedCheckin:
        """Apply all three mechanisms, in that order, and attach the
        accounting records.  A level of ε = ∞ draws nothing; the outputs
        never alias the inputs."""
        calibration = self._calibration
        key = (num_samples, label_counts.shape[0])
        scale, *records = calibration.rounds.get(key) or calibration.calibrate(
            self._model, *key
        )
        if scale:
            noisy_gradient = averaged_gradient + self._draw_gradient_noise(
                0.0, scale, averaged_gradient.shape
            )
        else:
            noisy_gradient = averaged_gradient.astype(np.float64)
        noisy_error = int(error_count)
        if calibration.error_success:
            noisy_error += int(
                discrete_laplace_noise(calibration.error_success, self._rng, 1)[0]
            )
        if calibration.label_success:
            noisy_labels = label_counts + discrete_laplace_noise(
                calibration.label_success, self._rng, label_counts.shape
            )
        else:
            noisy_labels = label_counts.astype(np.int64)
        return SanitizedCheckin(noisy_gradient, noisy_error, noisy_labels, *records)
