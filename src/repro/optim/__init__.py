"""Optimizers and learning-rate schedules (Eq. 3, Eq. 5, Remark 3).

The server's update rule is :func:`paper_sgd`: projected
:class:`~repro.optim.sgd.SGD` with the ``c/√t`` schedule, the optimizer
every server builds and the only one a :mod:`repro.persist` snapshot
carries.  :class:`~repro.optim.sgd.AdaGrad` and
:class:`~repro.optim.sgd.AveragedSGD` are the drop-in alternatives Remark 3
permits without affecting the privacy guarantee (they are post-processing
of already-sanitized gradients); the optimizer ablation runs them in
process.
"""

from repro.optim.projection import (
    BoxProjection,
    IdentityProjection,
    L2BallProjection,
    Projection,
)
from repro.optim.schedules import (
    ConstantRate,
    InverseSqrtRate,
    InverseTimeRate,
    LearningRateSchedule,
    StepDecayRate,
)
from repro.optim.sgd import SGD, AdaGrad, AveragedSGD, Optimizer

__all__ = [
    "AdaGrad",
    "AveragedSGD",
    "BoxProjection",
    "ConstantRate",
    "IdentityProjection",
    "InverseSqrtRate",
    "InverseTimeRate",
    "L2BallProjection",
    "LearningRateSchedule",
    "Optimizer",
    "Projection",
    "SGD",
    "StepDecayRate",
    "paper_sgd",
]


def paper_sgd(initial_parameters, learning_rate_constant: float = 1.0,
              projection_radius=None) -> SGD:
    """The paper's server update rule, built one way everywhere.

    Projected SGD (Eq. 3) with the ``η(t) = c/√t`` schedule (Eq. 5) and
    the radius-R ball W (``None`` = unconstrained).  This single factory
    is what :class:`~repro.simulation.simulator.CrowdSimulator`, the
    ``repro-serve`` CLI, and the remote examples all share — the
    bit-parity of an HTTP run against an in-process run rests on both
    sides constructing *this* optimizer, so build it here, not by hand.
    """
    projection = (
        L2BallProjection(projection_radius)
        if projection_radius is not None
        else IdentityProjection()
    )
    return SGD(
        initial_parameters,
        schedule=InverseSqrtRate(learning_rate_constant),
        projection=projection,
    )
