"""Named, parameterized component registries.

The declarative experiment layer (:mod:`repro.experiments`) refers to
models, dataset makers, partitioners and learning-rate schedules *by
name*, so that an :class:`~repro.experiments.ArmSpec` is pure data
(serializable to JSON) and a worker process can rebuild every component
from ``(name, kwargs)`` pairs.  Downstream code extends the system without
touching core modules::

    from repro.registry import MODELS

    @MODELS.register("my_model")
    def _build(num_features, num_classes, **kwargs):
        return MyModel(num_features, num_classes, **kwargs)

Five registries carry every built-in component as the import path of
its factory, imported on the first :meth:`Registry.get` of its name: a
server lists the model names (``repro-serve --model`` choices) without
importing any model, and never loads the dataset generators:

* :data:`MODELS` — ``logistic``, ``linear_svm``, ``ridge``.
* :data:`DATASETS` — ``mnist_like``, ``cifar_like``, ``activity_stream``,
  ``thermostat``.
* :data:`PARTITIONERS` — ``iid``, ``dirichlet``, ``shard``.
* :data:`SCHEDULES` — ``inverse_sqrt``, ``constant``, ``inverse_time``,
  ``step_decay``.
* :data:`GATEWAY_ASSIGNMENTS` — ``round_robin``, ``block``, ``hash``
  device→gateway assignment policies for the two-tier topology.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Union

from repro.utils.exceptions import ReproError


class RegistryError(ReproError):
    """An unknown name was looked up, or a name was registered twice."""


class Registry:
    """A mapping from names to component factories.

    Parameters
    ----------
    kind:
        Human-readable description of what the registry holds (used in
        error messages, e.g. ``"model"``).
    builtins:
        Optional ``{name: "module:attribute"}`` table of built-in
        factories; each is imported on the first :meth:`get` of its name.

    Examples
    --------
    >>> reg = Registry("greeter")
    >>> @reg.register("hello")
    ... def make_hello(name="world"):
    ...     return f"hello, {name}"
    >>> reg.create("hello", name="crowd")
    'hello, crowd'
    >>> "hello" in reg
    True
    """

    def __init__(self, kind: str, builtins: Optional[Mapping[str, str]] = None):
        self._kind = kind
        #: name -> factory, or the import path of a built-in not yet got.
        self._factories: Dict[str, Union[Callable[..., Any], str]] = dict(
            builtins or {}
        )

    @property
    def kind(self) -> str:
        """What this registry holds (``"model"``, ``"dataset maker"``, ...)."""
        return self._kind

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        overwrite: bool = False,
    ):
        """Register ``factory`` under ``name``.

        Usable directly (``reg.register("x", build_x)``) or as a decorator
        (``@reg.register("x")``).  Registering an existing name raises
        :class:`RegistryError` unless ``overwrite=True``.
        """

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not overwrite and name in self._factories:
                raise RegistryError(
                    f"{self._kind} '{name}' is already registered; "
                    f"pass overwrite=True to replace it"
                )
            self._factories[name] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> None:
        """Remove ``name`` (raises :class:`RegistryError` if absent)."""
        self.get(name)
        del self._factories[name]

    def get(self, name: str) -> Callable[..., Any]:
        """Return the factory registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise RegistryError(
                f"unknown {self._kind} '{name}' (registered: {known})"
            ) from None
        if isinstance(factory, str):
            # A racing first get imports twice (imports are idempotent)
            # and stores the same object.
            module, _, attribute = factory.partition(":")
            factory = getattr(import_module(module), attribute)
            self._factories[name] = factory
        return factory

    def create(self, name: str, /, **kwargs: Any) -> Any:
        """Instantiate the component: ``get(name)(**kwargs)``.

        ``name`` is positional-only so component factories may themselves
        take a ``name`` keyword.
        """
        return self.get(name)(**kwargs)

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry(kind={self._kind!r}, names={list(self.names())})"


# Pure index math, defined here so the registry stays import-light
# (repro.gateway imports this module, not the other way round).
def _round_robin(num_devices: int, num_gateways: int):
    return [m % num_gateways for m in range(num_devices)]


def _block(num_devices: int, num_gateways: int):
    return [m * num_gateways // num_devices for m in range(num_devices)]


def _hash(num_devices: int, num_gateways: int):
    # The shard router's scramble: deterministic, breaks up locality.
    from repro.core.sharding import stable_device_hash

    return [stable_device_hash(m) % num_gateways for m in range(num_devices)]


#: Classifier/predictor families (``h(x; w)`` of Section III-A).
MODELS = Registry("model", {
    "logistic": "repro.models:MulticlassLogisticRegression",
    "linear_svm": "repro.models:MulticlassLinearSVM",
    "ridge": "repro.models:RidgeRegression",
})
#: ``(train, test)`` dataset makers (plus the Fig. 3 stream generator).
DATASETS = Registry("dataset maker", {
    "mnist_like": "repro.data:make_mnist_like",
    "cifar_like": "repro.data:make_cifar_like",
    "activity_stream": "repro.data:make_activity_stream",
    "thermostat": "repro.data:make_thermostat_split",
})
#: Sample-to-device assignment strategies.
PARTITIONERS = Registry("partitioner", {
    "iid": "repro.data:iid_partition",
    "dirichlet": "repro.data:dirichlet_partition",
    "shard": "repro.data:shard_partition",
})
#: Learning-rate schedules (Eq. 5 and Remark 3 alternatives).
SCHEDULES = Registry("schedule", {
    "inverse_sqrt": "repro.optim:InverseSqrtRate",
    "constant": "repro.optim:ConstantRate",
    "inverse_time": "repro.optim:InverseTimeRate",
    "step_decay": "repro.optim:StepDecayRate",
})
#: Device→gateway assignment policies for the two-tier gateway topology.
#: Factories take ``num_devices`` and ``num_gateways`` and return a
#: sequence of gateway indices, one per device.
GATEWAY_ASSIGNMENTS = Registry("gateway assignment policy")
GATEWAY_ASSIGNMENTS.register("round_robin", _round_robin)
GATEWAY_ASSIGNMENTS.register("block", _block)
GATEWAY_ASSIGNMENTS.register("hash", _hash)

__all__ = [
    "DATASETS",
    "GATEWAY_ASSIGNMENTS",
    "MODELS",
    "PARTITIONERS",
    "Registry",
    "RegistryError",
    "SCHEDULES",
]
