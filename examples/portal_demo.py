"""End-to-end portal walkthrough: publish a task, enroll phones, watch the
differentially private dashboard update (Section V-A).

Usage::

    python examples/portal_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Device, ServerConfig, ServerCore
from repro.core.protocol import CheckoutRequest
from repro.data import ACTIVITY_NAMES, NUM_ACTIVITIES, make_activity_stream
from repro.models import MulticlassLogisticRegression
from repro.portal import Portal, TaskDescriptor
from repro.privacy import split_budget

NUM_PHONES = 5
SAMPLES_PER_PHONE = 60
EPSILON = 5.0
# The paper's Remark (Appendix B) sets the monitoring epsilons very small
# because they don't affect learning — but then the dashboard needs many
# check-ins before its estimates stabilize.  A portal that *displays*
# statistics wants a larger monitoring share; 40% keeps the gradient
# budget at 3 while making the counts readable within one demo run.
MONITORING_FRACTION = 0.4


def main() -> None:
    model = MulticlassLogisticRegression(64, NUM_ACTIVITIES)
    server = ServerCore(model, config=ServerConfig(max_iterations=10_000))
    task = TaskDescriptor(
        task_id="activity-2015",
        name="Crowd activity recognition",
        objective="Learn a shared Still / On-Foot / In-Vehicle classifier",
        sensors=("triaxial accelerometer @ 20 Hz",),
        labels=ACTIVITY_NAMES,
        algorithm="3-class logistic regression (Table I), eta(t) = c/sqrt(t)",
        batch_size=4,
        budget=split_budget(EPSILON, NUM_ACTIVITIES,
                            monitoring_fraction=MONITORING_FRACTION),
    )
    portal = Portal()
    portal.publish(task, server)

    print("=== portal transparency page ===")
    print(task.describe())

    print("\n=== phones join via the portal ===")
    devices = []
    for p in range(NUM_PHONES):
        enrollment = portal.join("activity-2015")
        device = Device(
            enrollment.device_id, model, enrollment.device_config,
            enrollment.token, np.random.default_rng(50 + p),
        )
        devices.append((device, enrollment.token))
        print(f"phone {p} enrolled as device {enrollment.device_id}")

    print("\n=== sensing + crowd learning ===")
    dashboard = portal.dashboard("activity-2015")
    streams = [
        make_activity_stream(SAMPLES_PER_PHONE, np.random.default_rng(100 + p))
        for p in range(NUM_PHONES)
    ]
    for step in range(SAMPLES_PER_PHONE):
        for (device, token), stream in zip(devices, streams):
            x, y = stream.features[step], int(stream.labels[step])
            if device.observe(x, y):
                device.mark_checkout_requested()
                response = server.handle_checkout(
                    CheckoutRequest(device.device_id, token, float(step))
                )
                result = device.complete_checkout(
                    response.parameters, response.server_iteration
                )
                server.handle_checkin(result.message)
        if (step + 1) % 10 == 0:
            dashboard.snapshot()

    print(dashboard.render())
    print("\n=== portal index ===")
    print(portal.render_index())

    spend = devices[0][0].accountant.spend()
    print(
        f"\nper-sample privacy spent by device 0: "
        f"epsilon = {spend.per_sample_epsilon:.3g} "
        f"(cap disclosed on the portal: {EPSILON})"
    )


if __name__ == "__main__":
    main()
