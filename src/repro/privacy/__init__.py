"""Differential-privacy mechanisms used by Crowd-ML.

This package implements every mechanism the paper relies on:

* :class:`~repro.privacy.laplace.LaplaceMechanism` — Eq. (9)/(10), vector
  Laplace noise calibrated to L1 sensitivity (Theorem 1).
* :class:`~repro.privacy.discrete_laplace.DiscreteLaplaceMechanism` —
  Eqs. (11)/(12), integer-valued noise for counts (Theorem 2).
* :class:`~repro.privacy.exponential.ExponentialMechanism` — McSherry-Talwar
  sampling, used for label perturbation in the centralized baseline
  (Eq. (16), Theorem 3).
* :mod:`~repro.privacy.sensitivity` — global-sensitivity computations,
  including the 4/b bound of Appendix A and the Eq. (13) noise-power terms.
* :class:`~repro.privacy.accountant.PrivacyAccountant` — a device's running
  tally of the per-check-in ε = ε_g + ε_e + C·ε_yk under basic
  composition (it assumes each sample is released once).
* :class:`~repro.privacy.budget.PrivacyBudget` — the ε split itself.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "CentralizedBudget": "budget",
    "InversionResult": "attacks",
    "evaluate_inversion": "attacks",
    "inversion_attack_success": "attacks",
    "invert_logistic_gradient": "attacks",
    "DiscreteLaplaceMechanism": "discrete_laplace",
    "ExponentialMechanism": "exponential",
    "LaplaceMechanism": "laplace",
    "Mechanism": "mechanism",
    "PrivacyAccountant": "accountant",
    "PrivacyBudget": "budget",
    "PrivacySpend": "accountant",
    "count_sensitivity": "sensitivity",
    "discrete_laplace_variance": "discrete_laplace",
    "feature_sensitivity": "sensitivity",
    "gradient_noise_power": "sensitivity",
    "hinge_gradient_sensitivity": "sensitivity",
    "label_flip_distribution": "exponential",
    "laplace_noise_power": "sensitivity",
    "laplace_scale": "laplace",
    "logistic_gradient_sensitivity": "sensitivity",
    "perturb_label": "exponential",
    "perturb_labels": "exponential",
    "sample_discrete_laplace": "discrete_laplace",
    "sampling_noise_power": "sensitivity",
    "split_budget": "budget",
    "squared_loss_gradient_sensitivity": "sensitivity",
    "total_gradient_noise_power": "sensitivity",
    "validate_epsilon": "mechanism",
})
