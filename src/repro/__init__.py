"""Crowd-ML: a privacy-preserving learning framework for a crowd of smart devices.

Reproduction of Hamm, Champion, Chen, Belkin & Xuan (ICDCS 2015,
arXiv:1501.02484).  The package is organized as:

* :mod:`repro.core` — the framework itself: device (Algorithm 1) and
  server (Algorithm 2) runtimes, protocol, authentication, DP monitoring.
* :mod:`repro.privacy` — Laplace / discrete-Laplace / exponential
  mechanisms, sensitivity bounds, budget accounting.
* :mod:`repro.models` — logistic regression (Table I), linear SVM, ridge.
* :mod:`repro.optim` — projected SGD (Eq. 3), schedules, AdaGrad, averaging.
* :mod:`repro.network` — event queue, delay/outage models, channels.
* :mod:`repro.data` — synthetic MNIST-like / CIFAR-like / activity data,
  partitioning, the PCA + L1 pipeline.
* :mod:`repro.baselines` — centralized (batch & input-perturbed SGD) and
  decentralized comparators.
* :mod:`repro.simulation` — the event-driven crowd simulator and trial
  runner behind every figure.
* :mod:`repro.evaluation` — metrics and error-curve aggregation.
* :mod:`repro.registry` — named component registries (models, datasets,
  partitioners, schedules, gateway assignments) so experiments refer to
  components as data and third parties can plug in their own.
* :mod:`repro.experiments` — the declarative experiment layer:
  :class:`ArmSpec` / :class:`ExperimentSpec` (JSON-serializable figure
  definitions), :class:`ExperimentSession` (the parallel sweep runner with
  a shared dataset cache), and the ``run_figN_experiment`` wrappers.
* :mod:`repro.store` — the persistent run store: content-addressed
  results with atomic writes and file locking, so sweeps are cached,
  resumable, and shareable across processes (``repro-store`` CLI).
* :mod:`repro.serve` — the remote service API: a versioned wire
  protocol, :class:`CrowdService` (an HTTP host owning a ``ServerCore``),
  :class:`ServiceClient`/:class:`HttpTransport`/:class:`RemoteDevice`
  clients, and the ``repro-serve`` CLI — the same protocol surface the
  simulator exercises, served over a real network.
* :mod:`repro.gateway` — the edge gateway tier in front of a live
  service: :class:`~repro.gateway.edge.EdgeGateway` pools its devices'
  check-ins (:class:`GatewayAggregator`) into batched uploads, and
  :class:`TwoTierTopology` assigns devices to gateways.
* :mod:`repro.persist` — durable serving: versioned ``ServerCore``
  snapshots (bit-exact round trip), write-ahead checkpoint policy +
  store for ``repro-serve --state-dir`` crash-resume, and the fault
  harness (:class:`~repro.persist.FaultyProxy` /
  :class:`~repro.persist.ServeProcess`) that proves exactly-once
  check-in application under injected chaos.
* :mod:`repro.shard` — the sharded serving tier: ``repro-serve
  --workers N`` runs N durable workers behind one
  :class:`~repro.shard.ShardFrontEnd` (stable-hash device routing,
  batch split/merge), supervised by a
  :class:`~repro.shard.ShardSupervisor` that health-checks workers,
  fails a shard over from its newest snapshot, and fences zombie
  incarnations with a monotonic epoch.

Quickstart::

    from repro import quick_crowd_run
    report = quick_crowd_run(num_devices=50, epsilon=10.0, batch_size=10)
    print(report.final_error)

Declarative experiments::

    from repro import ArmSpec, ExperimentScale, ExperimentSession, ExperimentSpec
    spec = ExperimentSpec(
        name="epsilon sweep", dataset="mnist_like",
        scale=ExperimentScale.smoke(),
        arms=tuple(
            ArmSpec(label=f"eps={eps}", epsilon=eps, seed_offset=i,
                    schedule_kwargs={"constant": 30.0})
            for i, eps in enumerate((1.0, 10.0, 100.0))
        ),
    )
    result = ExperimentSession(max_workers=4).run(spec, seed=0)
    print(result.format_table())
"""

from __future__ import annotations

import math

from repro._lazy import lazy_namespace

__version__ = "1.8.0"

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "AggregatorStats": "gateway",
    "ArmSpec": "experiments",
    "CrowdService": "serve",
    "CrowdSimulator": "simulation",
    "DATASETS": "registry",
    "DatasetCache": "experiments",
    "Device": "core",
    "DeviceConfig": "core",
    "ExperimentScale": "experiments",
    "ExperimentSession": "experiments",
    "ExperimentSpec": "experiments",
    "FigureResult": "experiments",
    "GatewayAggregator": "gateway",
    "HttpTransport": "serve",
    "MODELS": "registry",
    "MulticlassLinearSVM": "models",
    "MulticlassLogisticRegression": "models",
    "PARTITIONERS": "registry",
    "PrivacyBudget": "privacy",
    "Registry": "registry",
    "RegistryError": "registry",
    "RemoteDevice": "serve",
    "RidgeRegression": "models",
    "RunStore": "store",
    "RunTrace": "simulation",
    "SCHEDULES": "registry",
    "ServerConfig": "core",
    "ServerCore": "core",
    "ServiceClient": "serve",
    "SimulationConfig": "simulation",
    "StoreError": "store",
    "TrialSetReport": "simulation",
    "TwoTierTopology": "gateway",
    "make_cifar_like": "data",
    "make_mnist_like": "data",
    "run_crowd_trials": "simulation",
    "run_fig3_experiment": "experiments",
    "run_fig4_experiment": "experiments",
    "run_fig5_experiment": "experiments",
    "run_fig6_experiment": "experiments",
    "run_fig7_experiment": "experiments",
    "run_fig8_experiment": "experiments",
    "run_fig9_experiment": "experiments",
    "split_budget": "privacy",
})
__all__ += ["quick_crowd_run", "__version__"]


def quick_crowd_run(
    num_devices: int = 50,
    epsilon: float = math.inf,
    batch_size: int = 1,
    num_train: int = 2000,
    num_test: int = 1000,
    num_trials: int = 1,
    seed: int = 0,
    learning_rate_constant: float = 30.0,
    num_passes: int = 1,
) -> TrialSetReport:
    """Run a small MNIST-like Crowd-ML experiment end to end.

    A convenience wrapper for first contact with the library: generates
    data, partitions it across ``num_devices``, simulates the crowd for
    ``num_passes`` passes over each device's local data, and returns the
    averaged :class:`~repro.simulation.TrialSetReport`.
    """
    from repro.data import MNIST_CLASSES, MNIST_DIM, make_mnist_like
    from repro.models import MulticlassLogisticRegression
    from repro.simulation import SimulationConfig, run_crowd_trials

    train, test = make_mnist_like(num_train=num_train, num_test=num_test, seed=seed)
    config = SimulationConfig(
        num_devices=num_devices,
        batch_size=batch_size,
        epsilon=epsilon,
        learning_rate_constant=learning_rate_constant,
        num_passes=num_passes,
    )
    return run_crowd_trials(
        model_factory=lambda: MulticlassLogisticRegression(MNIST_DIM, MNIST_CLASSES),
        train=train,
        test=test,
        config=config,
        num_trials=num_trials,
        base_seed=seed,
    )
