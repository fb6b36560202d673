"""Device Routine 3: sanitize check-in statistics before they leave.

Bundles the three mechanisms of Eqs. (10)-(12): Laplace noise on the
averaged gradient calibrated to the model's minibatch sensitivity, and
discrete Laplace noise on the misclassification count and each label count.

Everything in the routine that does not depend on the device's RNG — the
Laplace scale for a realized minibatch size ``n_s`` (≥ b, sensitivity
``S = 4/n_s``), the two geometric success probabilities, and the
check-in's (ε, release count) for the device's privacy tally — is
identical for every device of a crowd, so it lives once, in a
:class:`SanitizerCalibration` shared by all sanitizers built for the same
``(model, budget)``.  A :class:`CheckinSanitizer` is that calibration plus
the device's ``rng``; ``sanitize`` is the draws and nothing else, so a
device's first round costs what its hundredth does.  The draws are three
RNG calls at most (a level of ε = ∞ skips its own): the gradient noise,
then one :func:`~repro.privacy.discrete_laplace.discrete_laplace_noise`
call for the error count and one for the label counts, each drawing both
of its geometric vectors at once.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple, Tuple

import numpy as np

from repro.models.base import Model
from repro.privacy.accountant import checkin_sums
from repro.privacy.budget import PrivacyBudget
from repro.privacy.discrete_laplace import (
    DiscreteLaplaceMechanism,
    discrete_laplace_noise,
)
from repro.privacy.laplace import LaplaceMechanism


class SanitizedCheckin(NamedTuple):
    """The outputs of Device Routine 3 plus the check-in's privacy charge.

    ``release_sums`` is the (ε, release count) the device's accountant
    charges: the shared calibration's tuple, never a per-check-in
    allocation.  (A NamedTuple: one is built per check-in.)
    """

    gradient: np.ndarray
    error_count: int
    label_counts: np.ndarray
    release_sums: Tuple[float, int]


class SanitizerCalibration:
    """The RNG-independent half of Routine 3, one per crowd.

    Levels are validated once, through the mechanism constructors.  Holds
    no reference to the model (:func:`shared_calibration` keys weakly on
    it), so :meth:`calibrate` takes it.
    """

    def __init__(self, budget: PrivacyBudget):
        self.budget = budget
        self.error_success = DiscreteLaplaceMechanism(
            budget.epsilon_error).success_probability
        self.label_success = DiscreteLaplaceMechanism(
            budget.epsilon_label).success_probability
        #: (n_s, number of label counts) -> (Laplace scale, release_sums);
        #: see :meth:`calibrate`.
        self.rounds: dict = {}

    def calibrate(self, model: Model, num_samples: int, num_labels: int) -> tuple:
        """Build and remember the ``rounds`` entry for one realized round:
        the Laplace scale ``S/ε_g`` (0 = no noise) and the check-in's
        (ε, release count) — ε_g, then ε_e, then ε_yk ``num_labels`` times."""
        budget = self.budget
        scale = LaplaceMechanism(
            budget.epsilon_gradient, model.gradient_sensitivity(num_samples)
        ).scale
        sums = checkin_sums((
            (budget.epsilon_gradient, 1),
            (budget.epsilon_error, 1),
            (budget.epsilon_label, num_labels),
        ))
        entry = self.rounds[num_samples, num_labels] = (scale, sums)
        return entry


#: model -> {budget: calibration}.  Weak on the model, so a crowd's
#: calibrations die with its task definition.  Every entry is a pure
#: function of its key: threads racing on a miss only compute the same
#: values twice.
_CALIBRATIONS = weakref.WeakKeyDictionary()


def shared_calibration(model: Model, budget: PrivacyBudget) -> SanitizerCalibration:
    """The one calibration every sanitizer built on ``model`` with the same
    ``budget`` shares."""
    per_model = _CALIBRATIONS.setdefault(model, {})
    calibration = per_model.get(budget)
    if calibration is None:
        calibration = per_model[budget] = SanitizerCalibration(budget)
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

    def __init__(self, model: Model, budget: PrivacyBudget, rng: np.random.Generator):
        self._model = model
        self._rng = rng
        self._calibration = shared_calibration(model, budget)

    def sanitize(
        self,
        averaged_gradient: np.ndarray,
        error_count: int,
        label_counts: np.ndarray,
        num_samples: int,
    ) -> SanitizedCheckin:
        """Apply all three mechanisms, in that order, and attach the
        check-in's privacy charge.  A level of ε = ∞ draws nothing; the
        outputs never alias the inputs."""
        calibration = self._calibration
        rng = self._rng
        num_labels = label_counts.shape[0]
        scale, sums = calibration.rounds.get(
            (num_samples, num_labels)
        ) or calibration.calibrate(self._model, num_samples, num_labels)
        if scale:
            # The noise buffer takes the sum: a + b in place is the bits of
            # a fresh a + b, one allocation fewer.
            noisy_gradient = rng.laplace(0.0, scale, averaged_gradient.shape)
            np.add(averaged_gradient, noisy_gradient, out=noisy_gradient)
        else:
            noisy_gradient = averaged_gradient.astype(np.float64)
        noisy_error = int(error_count)
        if calibration.error_success:
            noisy_error += discrete_laplace_noise(calibration.error_success, rng)
        if calibration.label_success:
            noisy_labels = discrete_laplace_noise(
                calibration.label_success, rng, num_labels
            )
            np.add(label_counts, noisy_labels, out=noisy_labels)
        else:
            noisy_labels = label_counts.astype(np.int64)
        return SanitizedCheckin(noisy_gradient, noisy_error, noisy_labels, sums)
