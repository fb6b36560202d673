"""Shared utilities: seeded RNG management, validation, numerics, errors."""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "AuthenticationError": "exceptions",
    "ConfigurationError": "exceptions",
    "ProtocolError": "exceptions",
    "ReproError": "exceptions",
    "RngFactory": "rng",
    "as_generator": "rng",
    "check_fraction": "validation",
    "check_in_choices": "validation",
    "check_labels": "validation",
    "check_matrix": "validation",
    "check_non_negative": "validation",
    "check_positive": "validation",
    "check_positive_int": "validation",
    "check_vector": "validation",
    "derive_seed": "rng",
    "l1_normalize": "numerics",
    "log_sum_exp": "numerics",
    "one_hot": "numerics",
    "running_mean": "numerics",
    "softmax": "numerics",
    "spawn_generators": "rng",
})
