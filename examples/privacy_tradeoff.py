"""Privacy-performance trade-off: Crowd-ML vs the centralized approach.

Sweeps the per-sample privacy level ε and compares three systems on the
same data (the Section IV-A analysis, demonstrated):

* **Crowd-ML** — devices release Laplace-noised averaged gradients; the
  noise scale is 4/(b·ε), so a minibatch of b = 20 absorbs most of it;
* **Centralized (batch)** — raw inputs are feature/label-perturbed before
  leaving the device (Appendix C), then batch-trained;
* **Centralized (SGD)** — same perturbed inputs, streamed through SGD.

Usage::

    python examples/privacy_tradeoff.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import SimulationConfig, run_crowd_trials
from repro.baselines import CentralizedBatchTrainer, CentralizedSGDTrainer
from repro.data import MNIST_CLASSES, MNIST_DIM, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.optim import InverseSqrtRate
from repro.privacy import CentralizedBudget

EPSILONS = (math.inf, 100.0, 10.0, 1.0)
BATCH_SIZE = 20


def model_factory() -> MulticlassLogisticRegression:
    return MulticlassLogisticRegression(MNIST_DIM, MNIST_CLASSES,
                                        l2_regularization=1e-4)


def crowd_error(train, test, epsilon: float) -> float:
    config = SimulationConfig(
        num_devices=100,
        batch_size=BATCH_SIZE,
        epsilon=epsilon,
        learning_rate_constant=30.0,
        num_passes=3,
    )
    return run_crowd_trials(model_factory, train, test, config,
                            num_trials=1).tail_error()


def central_batch_error(train, test, epsilon: float) -> float:
    budget = CentralizedBudget.even_split(epsilon)
    trainer = CentralizedBatchTrainer(model_factory(), budget=budget)
    return trainer.evaluate(train, test, np.random.default_rng(0))


def central_sgd_error(train, test, epsilon: float) -> float:
    budget = CentralizedBudget.even_split(epsilon)
    trainer = CentralizedSGDTrainer(
        model_factory(), InverseSqrtRate(30.0), batch_size=BATCH_SIZE, budget=budget
    )
    result = trainer.fit(train, test, np.random.default_rng(0), num_passes=3)
    return result.curve.tail_error()


def main() -> None:
    print("Generating data ...")
    train, test = make_mnist_like(num_train=6000, num_test=1500, seed=0)

    print(f"\n{'epsilon':>10} {'Crowd-ML(b=20)':>15} {'Central batch':>14} "
          f"{'Central SGD':>12}")
    for epsilon in EPSILONS:
        crowd = crowd_error(train, test, epsilon)
        batch = central_batch_error(train, test, epsilon)
        sgd = central_sgd_error(train, test, epsilon)
        label = "inf" if math.isinf(epsilon) else f"{epsilon:g}"
        print(f"{label:>10} {crowd:>15.3f} {batch:>14.3f} {sgd:>12.3f}")

    print(
        "\nReading the table: as epsilon shrinks (stronger privacy), the\n"
        "centralized arms collapse toward chance (0.9) because their input\n"
        "noise is constant per sample, while Crowd-ML degrades gracefully —\n"
        "its gradient noise scale 4/(b*eps) is absorbed by the minibatch."
    )


if __name__ == "__main__":
    main()
