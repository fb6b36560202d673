"""The Web-portal facade (Section V-A): browse tasks, join, view stats.

Binds task descriptors to running
:class:`~repro.core.server_core.ServerCore` instances.  Joining a task
registers the device with the server's authentication registry and hands
back everything a device app needs: the token and the :class:`~repro.core.config.DeviceConfig` (minibatch size,
buffer cap, privacy budget) matching the task's public description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.config import DeviceConfig
from repro.core.server_core import ServerCore
from repro.portal.dashboard import Dashboard
from repro.portal.task import TaskDescriptor
from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class Enrollment:
    """What a device receives when it joins a task."""

    task_id: str
    device_id: int
    token: str
    device_config: DeviceConfig


class Portal:
    """Registry of ongoing crowd-learning tasks.

    Examples
    --------
    >>> import math
    >>> from repro.core import ServerConfig, ServerCore
    >>> from repro.models import MulticlassLogisticRegression
    >>> from repro.privacy import split_budget
    >>> model = MulticlassLogisticRegression(4, 2)
    >>> server = ServerCore(model, config=ServerConfig(max_iterations=10))
    >>> task = TaskDescriptor(
    ...     task_id="demo", name="Demo", objective="demo",
    ...     sensors=("accelerometer",), labels=("a", "b"),
    ...     algorithm="logistic regression", batch_size=1,
    ...     budget=split_budget(math.inf, 2))
    >>> portal = Portal()
    >>> portal.publish(task, server)
    >>> enrollment = portal.join("demo")
    >>> enrollment.device_id
    0
    """

    def __init__(self):
        self._tasks: Dict[str, TaskDescriptor] = {}
        self._servers: Dict[str, ServerCore] = {}
        self._dashboards: Dict[str, Dashboard] = {}
        self._next_device_id: Dict[str, int] = {}

    def publish(
        self,
        task: TaskDescriptor,
        server: ServerCore,
        *,
        buffer_factor: int = 10,
    ) -> None:
        """Make a task browsable and joinable."""
        if task.task_id in self._tasks:
            raise ConfigurationError(f"task {task.task_id!r} already published")
        if server.model.num_classes != task.budget.num_classes:
            raise ConfigurationError(
                "server model and task budget disagree on num_classes"
            )
        self._tasks[task.task_id] = task
        self._servers[task.task_id] = server
        self._dashboards[task.task_id] = Dashboard(server.monitor, task.labels)
        self._next_device_id[task.task_id] = 0
        self._buffer_factor = buffer_factor

    def tasks(self) -> list[TaskDescriptor]:
        """All published tasks (browse view)."""
        return list(self._tasks.values())

    def get_task(self, task_id: str) -> TaskDescriptor:
        if task_id not in self._tasks:
            raise ConfigurationError(f"unknown task {task_id!r}")
        return self._tasks[task_id]

    def server_for(self, task_id: str) -> ServerCore:
        """The running server behind a task."""
        self.get_task(task_id)
        return self._servers[task_id]

    def join(self, task_id: str) -> Enrollment:
        """Enroll a new device in a task ("downloading the app")."""
        task = self.get_task(task_id)
        server = self._servers[task_id]
        device_id = self._next_device_id[task_id]
        self._next_device_id[task_id] = device_id + 1
        token = server.register_device(device_id)
        device_config = DeviceConfig(
            batch_size=task.batch_size,
            buffer_capacity=task.batch_size * self._buffer_factor,
            budget=task.budget,
        )
        return Enrollment(
            task_id=task_id,
            device_id=device_id,
            token=token,
            device_config=device_config,
        )

    def leave(self, task_id: str, device_id: int) -> None:
        """Revoke a device's access (devices may leave at any time)."""
        self.server_for(task_id).registry.revoke(device_id)

    def dashboard(self, task_id: str) -> Dashboard:
        """DP statistics dashboard for one task."""
        self.get_task(task_id)
        return self._dashboards[task_id]

    def render_index(self) -> str:
        """The portal landing page as plain text."""
        if not self._tasks:
            return "No crowd-learning tasks are currently running."
        sections = []
        for task in self._tasks.values():
            server = self._servers[task.task_id]
            status = "stopped" if server.stopped else "running"
            sections.append(
                f"[{status}] {task.name} ({task.task_id}) — "
                f"{server.registry.num_registered} devices enrolled, "
                f"iteration {server.iteration}"
            )
        return "\n".join(sections)
