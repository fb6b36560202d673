"""Delay robustness: asynchronous learning on a slow network (Fig. 6 demo).

Sweeps the maximum communication delay τ (in Δ = τ/(M·F_s) units — the
number of samples the whole crowd generates during one delay) and shows
that a minibatch of b = 20 makes Crowd-ML essentially delay-insensitive,
while b = 1 degrades, exactly as Section IV-B3 predicts: the number of
stale updates per round trip is (τ_co + τ_ci)·M·F_s / b.

Usage::

    python examples/delay_robustness.py
"""

from __future__ import annotations

from repro import SimulationConfig, run_crowd_trials
from repro.data import MNIST_CLASSES, MNIST_DIM, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.network import LinkDelays

EPSILON = 10.0  # the paper's Fig. 6 privacy level (eps^-1 = 0.1)
DELAYS = (1, 10, 100, 1000)  # in Delta units
NUM_DEVICES = 100


def model_factory() -> MulticlassLogisticRegression:
    return MulticlassLogisticRegression(MNIST_DIM, MNIST_CLASSES,
                                        l2_regularization=1e-4)


def run(train, test, batch_size: int, delay_multiples: int) -> float:
    probe = SimulationConfig(num_devices=NUM_DEVICES)
    tau = probe.delay_in_sample_units(delay_multiples)
    config = SimulationConfig(
        num_devices=NUM_DEVICES,
        batch_size=batch_size,
        epsilon=EPSILON,
        learning_rate_constant=30.0,
        link_delays=LinkDelays.uniform(tau),
        num_passes=3,
    )
    return run_crowd_trials(model_factory, train, test, config,
                            num_trials=1).tail_error()


def main() -> None:
    print("Generating data ...")
    train, test = make_mnist_like(num_train=6000, num_test=1500, seed=0)

    print(f"\nCrowd-ML tail test error, epsilon = {EPSILON} "
          f"(delays in Delta = 1/(M*Fs) units)")
    print(f"{'delay':>8} {'b=1':>8} {'b=20':>8}")
    for delay in DELAYS:
        b1 = run(train, test, batch_size=1, delay_multiples=delay)
        b20 = run(train, test, batch_size=20, delay_multiples=delay)
        print(f"{delay:>7d}D {b1:>8.3f} {b20:>8.3f}")

    print(
        "\nWith b = 20 the error barely moves across three orders of\n"
        "magnitude of delay: fewer, larger updates mean far fewer stale\n"
        "gradients in flight (Section IV-B3), at no privacy cost."
    )


if __name__ == "__main__":
    main()
