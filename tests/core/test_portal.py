"""Tests for the Web-portal substrate (Section V-A)."""

import math

import numpy as np
import pytest

from repro.core import Device, ServerConfig, ServerCore
from repro.core.protocol import CheckoutRequest
from repro.models import MulticlassLogisticRegression
from repro.portal import Dashboard, Portal, TaskDescriptor, ascii_bar_chart, sparkline
from repro.privacy import split_budget
from repro.utils.exceptions import AuthenticationError, ConfigurationError


def make_task(task_id="activity", epsilon=1.0, batch_size=5, num_classes=3):
    return TaskDescriptor(
        task_id=task_id,
        name="Activity recognition",
        objective="Recognize Still / On Foot / In Vehicle from accelerometer",
        sensors=("accelerometer",),
        labels=tuple(f"class{i}" for i in range(num_classes)),
        algorithm="multiclass logistic regression (Table I)",
        batch_size=batch_size,
        budget=split_budget(epsilon, num_classes),
    )


def make_server(num_classes=3, num_features=4):
    model = MulticlassLogisticRegression(num_features, num_classes)
    return ServerCore(model, config=ServerConfig(max_iterations=1000))


class TestTaskDescriptor:
    def test_describe_mentions_everything(self):
        text = make_task().describe()
        assert "accelerometer" in text
        assert "logistic regression" in text
        assert "epsilon" in text

    def test_privacy_summary_non_private(self):
        task = make_task(epsilon=math.inf)
        assert "epsilon = inf" in task.privacy_summary

    def test_privacy_summary_discloses_split(self):
        summary = make_task(epsilon=1.0).privacy_summary
        assert "gradient" in summary
        assert "label count" in summary

    def test_rejects_label_budget_mismatch(self):
        with pytest.raises(ConfigurationError):
            TaskDescriptor(
                task_id="x", name="x", objective="x", sensors=(),
                labels=("a", "b"), algorithm="lr", batch_size=1,
                budget=split_budget(1.0, 3),
            )


class TestPortalLifecycle:
    def test_publish_and_browse(self):
        portal = Portal()
        portal.publish(make_task(), make_server())
        assert len(portal.tasks()) == 1
        assert "Activity recognition" in portal.render_index()

    def test_duplicate_publish_rejected(self):
        portal = Portal()
        portal.publish(make_task(), make_server())
        with pytest.raises(ConfigurationError):
            portal.publish(make_task(), make_server())

    def test_class_mismatch_rejected(self):
        portal = Portal()
        with pytest.raises(ConfigurationError):
            portal.publish(make_task(num_classes=3), make_server(num_classes=5))

    def test_join_assigns_sequential_ids(self):
        portal = Portal()
        portal.publish(make_task(), make_server())
        a = portal.join("activity")
        b = portal.join("activity")
        assert (a.device_id, b.device_id) == (0, 1)
        assert a.token != b.token

    def test_enrollment_config_matches_task(self):
        portal = Portal()
        task = make_task(batch_size=7, epsilon=2.0)
        portal.publish(task, make_server())
        enrollment = portal.join("activity")
        assert enrollment.device_config.batch_size == 7
        assert enrollment.device_config.budget.total_epsilon == pytest.approx(2.0)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            Portal().join("nope")

    def test_leave_revokes_access(self):
        portal = Portal()
        server = make_server()
        portal.publish(make_task(), server)
        enrollment = portal.join("activity")
        portal.leave("activity", enrollment.device_id)
        with pytest.raises(AuthenticationError):
            server.handle_checkout(
                CheckoutRequest(enrollment.device_id, enrollment.token, 0.0)
            )

    def test_enrolled_device_can_run_protocol(self, rng):
        """The portal's enrollment is sufficient to drive Algorithm 1."""
        portal = Portal()
        server = make_server()
        portal.publish(make_task(batch_size=1), server)
        enrollment = portal.join("activity")
        model = server.model
        device = Device(
            enrollment.device_id, model, enrollment.device_config,
            enrollment.token, rng,
        )
        x = rng.normal(size=4)
        x /= np.abs(x).sum()
        assert device.observe(x, 1)
        device.mark_checkout_requested()
        response = server.handle_checkout(
            CheckoutRequest(enrollment.device_id, enrollment.token, 0.0)
        )
        result = device.complete_checkout(response.parameters, 0)
        ack = server.handle_checkin(result.message)
        assert ack.server_iteration == 1


class TestDashboard:
    def test_render_contains_dp_stats(self):
        portal = Portal()
        server = make_server()
        portal.publish(make_task(), server)
        server.monitor.record(0, 10, 2, np.array([4, 3, 3]))
        text = portal.dashboard("activity").render()
        assert "error estimate   : 0.200" in text
        assert "class0" in text

    def test_snapshot_builds_trend(self):
        monitor_server = make_server()
        dashboard = Dashboard(monitor_server.monitor, ["a", "b", "c"])
        monitor_server.monitor.record(0, 10, 8, np.array([4, 3, 3]))
        dashboard.snapshot()
        monitor_server.monitor.record(0, 90, 2, np.array([30, 30, 30]))
        dashboard.snapshot()
        assert len(dashboard.error_history) == 2
        assert "error trend" in dashboard.render()

    def test_label_name_count_enforced(self):
        server = make_server()
        with pytest.raises(ValueError):
            Dashboard(server.monitor, ["only-two", "names"])


class TestRenderingHelpers:
    def test_bar_chart_proportions(self):
        chart = ascii_bar_chart([1.0, 0.5], ["long", "short"], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_all_zero(self):
        chart = ascii_bar_chart([0.0, 0.0], ["a", "b"], width=5)
        assert "#" not in chart

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            ascii_bar_chart([1.0], ["a", "b"])

    def test_sparkline_monotone(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_constant_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([0.3, 0.3]) == "▁▁"
