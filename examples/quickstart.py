"""Quickstart: learn a private classifier from a simulated crowd.

Two ways in, shortest first:

1. :func:`repro.quick_crowd_run` — one call, multi-pass, optionally
   private.
2. The declarative API — the same comparison written as an
   :class:`~repro.ExperimentSpec` (pure data, JSON-serializable) and
   executed by an :class:`~repro.ExperimentSession`.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

import math

from repro import (
    ArmSpec,
    ExperimentScale,
    ExperimentSession,
    ExperimentSpec,
    quick_crowd_run,
)


def describe(report, label: str, num_passes: int) -> None:
    trace = report.traces[0]
    comm = trace.communication
    print(f"\n--- {label} ---")
    print(f"final test error        : {report.final_error:.3f}")
    print(f"asymptotic (tail) error : {report.tail_error():.3f}")
    print(f"server SGD updates      : {trace.server_iterations}")
    print(f"samples consumed        : {trace.total_samples_consumed}")
    print(f"uplink volume (floats)  : {comm.uplink_floats}")
    # ``per_sample_epsilon`` is one check-in's ε (0 when nothing is noised);
    # every pass releases each sample once more, so under basic
    # composition a sample's spend is that times the passes.
    epsilon = trace.per_sample_epsilon
    if epsilon:
        print(f"ε of one check-in       : {epsilon:.3g}")
        print(f"per-sample ε, {num_passes} passes  : "
              f"{epsilon * num_passes:.3g} (basic composition)")
    else:
        print("ε of one check-in       : ∞ (no noise)")
    print("error curve (iteration -> test error):")
    curve = report.mean_curve
    step = max(1, len(curve) // 8)
    for i in range(0, len(curve), step):
        print(f"  {int(curve.iterations[i]):>7d}  {curve.errors[i]:.3f}")


def main() -> None:
    print("Simulating 100 devices, no privacy (epsilon = inf), b = 1, 2 passes ...")
    report = quick_crowd_run(
        num_devices=100, epsilon=math.inf, batch_size=1,
        num_train=6000, num_test=1500, num_passes=2,
    )
    describe(report, "Crowd-ML, non-private", num_passes=2)

    print("\nSame crowd with epsilon = 10 per check-in, b = 20, 4 passes"
          "\n(each sample is released once a pass: 4 x 10 = 40 per sample) ...")
    report = quick_crowd_run(
        num_devices=100, epsilon=10.0, batch_size=20,
        num_train=6000, num_test=1500, num_passes=4,
    )
    describe(report, "Crowd-ML, epsilon = 10 per check-in, b = 20", num_passes=4)

    print(
        "\nThe private curve keeps descending toward the non-private floor:"
        "\nthe minibatch average shrinks the Laplace noise by 1/b (Eq. 13),"
        "\nso privacy costs convergence speed rather than a higher plateau."
        "\n(Run longer / with more devices to watch it close the gap.)"
    )

    # The same comparison, declaratively: each arm is data (registry names
    # + kwargs), so this spec serializes to JSON and back unchanged.
    spec = ExperimentSpec(
        name="quickstart (privacy comparison)",
        dataset="mnist_like",
        scale=ExperimentScale(num_train=6000, num_test=1500, num_devices=100,
                              num_trials=1, num_passes=2),
        arms=(
            ArmSpec(label="non-private (b=1)",
                    schedule_kwargs={"constant": 30.0},
                    l2_regularization=1e-4),
            ArmSpec(label="eps=10 (b=20)", epsilon=10.0, batch_size=20,
                    num_passes=4,
                    schedule_kwargs={"constant": 30.0},
                    l2_regularization=1e-4, seed_offset=1),
        ),
    )
    print("\nRe-running declaratively (ExperimentSpec -> ExperimentSession) ...")
    result = ExperimentSession(max_workers=2).run(spec, seed=0)
    print(result.format_table())
    print("\nThis spec as JSON (rerunnable via ExperimentSpec.from_json):")
    print(spec.to_json())


if __name__ == "__main__":
    main()
