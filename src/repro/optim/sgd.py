"""Server-side update rules (Eq. 3 and the Remark-3 alternatives).

An :class:`Optimizer` consumes one (possibly noisy, possibly delayed)
gradient at a time and maintains the flat parameter vector.  The server
applies it inside Algorithm 2's Routine 2; it is equally usable standalone,
which is how the centralized-SGD and decentralized baselines train.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.optim.projection import IdentityProjection, Projection
from repro.optim.schedules import InverseSqrtRate, LearningRateSchedule
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_vector


class Optimizer(ABC):
    """Incremental first-order optimizer over a flat parameter vector."""

    def __init__(
        self,
        initial_parameters: np.ndarray,
        projection: Optional[Projection] = None,
    ):
        self._parameters = check_vector(
            np.array(initial_parameters, dtype=np.float64, copy=True), "initial_parameters"
        )
        self._projection = projection if projection is not None else IdentityProjection()
        self._iteration = 0

    @property
    def parameters(self) -> np.ndarray:
        """Current parameter vector (copy; the optimizer owns its state)."""
        return self._parameters.copy()

    @property
    def parameters_view(self) -> np.ndarray:
        """Current parameter vector WITHOUT a defensive copy.

        Read-only contract: every step rebinds a fresh vector rather than
        mutating in place, so a view taken here is stable forever — but
        writing to it corrupts the optimizer.  For hot paths that build
        one immutable message per update.
        """
        return self._parameters

    @property
    def iteration(self) -> int:
        """Number of gradient steps applied so far."""
        return self._iteration

    @property
    def projection(self) -> Projection:
        """Projection applied after every step (Π_W of Eq. 3)."""
        return self._projection

    def step(self, gradient: np.ndarray) -> np.ndarray:
        """Apply one update and return the new parameter vector.

        The returned array is the optimizer's current state — treat it as
        read-only (every step rebinds a fresh vector, so references taken
        here are never mutated later; use :attr:`parameters` for an owned
        copy).  Skipping the defensive copy matters: the server applies
        one step per check-in.

        A non-finite gradient is rejected before it can touch the state:
        the optimizer sits at the server's wire boundary, and one inf/NaN
        message would otherwise corrupt w permanently.  ``g·g`` is finite
        only if every element is (a square is never negative, so nothing
        cancels), so the element-wise pass runs only when the dot is not —
        a NaN, an infinity, or finite entries whose squares overflow (that
        last gradient is accepted, with NumPy's overflow RuntimeWarning).
        """
        if type(gradient) is not np.ndarray or gradient.dtype != np.float64:
            gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self._parameters.shape:
            raise ConfigurationError(
                f"gradient must have shape {self._parameters.shape}, "
                f"got {gradient.shape}"
            )
        if (not math.isfinite(gradient.dot(gradient))
                and not np.isfinite(gradient).all()):
            raise ConfigurationError("gradient must contain only finite values")
        self._iteration += 1
        updated = self._apply(gradient)
        self._parameters = np.asarray(self._projection(updated), dtype=np.float64)
        return self._parameters

    def restore_state(self, parameters: np.ndarray, iteration: int) -> None:
        """Rebind (w, t) from a snapshot — the :mod:`repro.persist` seam.

        The parameters are adopted bit for bit (no projection re-applied:
        a snapshotted vector was already projected when it was produced).
        """
        parameters = check_vector(
            np.array(parameters, dtype=np.float64, copy=True), "parameters"
        )
        if parameters.shape != self._parameters.shape:
            raise ConfigurationError(
                f"snapshot parameters have shape {parameters.shape}, "
                f"optimizer expects {self._parameters.shape}"
            )
        if iteration < 0:
            raise ConfigurationError(f"iteration must be >= 0, got {iteration}")
        self._parameters = parameters
        self._iteration = int(iteration)

    @abstractmethod
    def _apply(self, gradient: np.ndarray) -> np.ndarray:
        """Compute the pre-projection update for the current iteration."""


class SGD(Optimizer):
    """Projected stochastic (sub)gradient descent — Eq. (3).

        w(t+1) ← Π_W[ w(t) − η(t)·g(t) ],   η(t) = c/√t by default.

    Examples
    --------
    >>> import numpy as np
    >>> opt = SGD(np.zeros(2), schedule=InverseSqrtRate(1.0))
    >>> opt.step(np.array([1.0, 0.0]))
    array([-1.,  0.])
    """

    def __init__(
        self,
        initial_parameters: np.ndarray,
        schedule: Optional[LearningRateSchedule] = None,
        projection: Optional[Projection] = None,
    ):
        super().__init__(initial_parameters, projection)
        self._schedule = schedule if schedule is not None else InverseSqrtRate(1.0)

    @property
    def schedule(self) -> LearningRateSchedule:
        """Learning-rate schedule η(t)."""
        return self._schedule

    def _apply(self, gradient: np.ndarray) -> np.ndarray:
        # w + (−η)·g in the product's buffer: negation is exact and
        # a + (−b) is IEEE a − b, so these are the bits of w − η·g with
        # one temporary fewer.  The buffer is fresh, so w is still rebound
        # rather than mutated (parameters_view stays stable).
        step = -self._schedule(self._iteration) * gradient
        return np.add(self._parameters, step, out=step)


class AdaGrad(Optimizer):
    """Adaptive subgradient method (Duchi et al.), Remark 3's alternative.

        G(t) = G(t−1) + g(t)²  (elementwise)
        w(t+1) ← Π_W[ w(t) − c·g(t) / (δ + √G(t)) ]

    Per-coordinate step shrinkage makes the server robust to occasional
    large (noisy or malicious) gradients, the property Remark 3 calls out.
    """

    def __init__(
        self,
        initial_parameters: np.ndarray,
        constant: float = 0.1,
        damping: float = 1e-8,
        projection: Optional[Projection] = None,
    ):
        super().__init__(initial_parameters, projection)
        if constant <= 0:
            raise ValueError(f"constant must be positive, got {constant}")
        if damping <= 0:
            raise ValueError(f"damping must be positive, got {damping}")
        self._constant = float(constant)
        self._damping = float(damping)
        self._accumulator = np.zeros_like(self._parameters)

    @property
    def accumulator(self) -> np.ndarray:
        """Accumulated squared gradients G(t) (copy)."""
        return self._accumulator.copy()

    def _apply(self, gradient: np.ndarray) -> np.ndarray:
        self._accumulator += gradient**2
        scale = self._constant / (self._damping + np.sqrt(self._accumulator))
        return self._parameters - scale * gradient


class AveragedSGD(SGD):
    """SGD with Polyak-Ruppert iterate averaging.

    The optimizer steps exactly like :class:`SGD` but additionally maintains
    the running average of iterates, available as :attr:`averaged_parameters`
    — the optimal-rate estimator for non-smooth stochastic optimization
    (the averaging schemes referenced around Eq. (13)'s convergence
    discussion).
    """

    def __init__(
        self,
        initial_parameters: np.ndarray,
        schedule: Optional[LearningRateSchedule] = None,
        projection: Optional[Projection] = None,
        burn_in: int = 0,
    ):
        super().__init__(initial_parameters, schedule, projection)
        if burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {burn_in}")
        self._burn_in = int(burn_in)
        self._average = self._parameters.copy()
        self._averaged_steps = 0

    @property
    def averaged_parameters(self) -> np.ndarray:
        """Polyak average of post-burn-in iterates (copy)."""
        return self._average.copy()

    def step(self, gradient: np.ndarray) -> np.ndarray:
        updated = super().step(gradient)
        if self._iteration > self._burn_in:
            self._averaged_steps += 1
            self._average += (updated - self._average) / self._averaged_steps
        else:
            self._average = updated.copy()
        return updated
