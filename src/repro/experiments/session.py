"""Sweep runner: execute an :class:`ExperimentSpec` across arms × trials.

:class:`ExperimentSession` turns a declarative spec into a
:class:`~repro.experiments.results.FigureResult`.  Work is decomposed into
one *task* per baseline arm and one task per (crowd arm, trial), so a
multi-arm, multi-trial figure saturates a
:class:`concurrent.futures.ProcessPoolExecutor` when ``max_workers > 1``.
Every task rebuilds its components from :mod:`repro.registry` names and
derives its random streams exactly as the serial code does (per-trial seeds
via :class:`~repro.utils.rng.RngFactory`, per-arm offsets via
``ArmSpec.seed_offset``), so parallel results are bit-identical to serial
ones regardless of scheduling order.

Datasets are generated once per ``(maker, kwargs)`` through a
:class:`DatasetCache` shared across arms (and across ``run`` calls on the
same session), instead of once per arm as the old hand-written figure code
did.

Attach a :class:`~repro.store.RunStore` and results also persist *across*
processes: every task is keyed by a content hash of its payload
(:func:`repro.store.keys.task_key`), cached tasks are skipped, fresh ones
are written to the store as they complete (so an interrupted sweep
resumes from disk, bit-identically), and a finished figure is stored
whole so a repeat run executes zero tasks.
"""

from __future__ import annotations

import inspect
import json
import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

import numpy as np

from repro.data.dataset import Dataset
from repro.evaluation.curves import ErrorCurve, average_curves
from repro.experiments.results import FigureResult
from repro.experiments.specs import ArmSpec, ExperimentSpec
from repro.network import LinkDelays
from repro.privacy import CentralizedBudget
from repro.registry import DATASETS, MODELS, PARTITIONERS, SCHEDULES
from repro.simulation import CrowdSimulator, SimulationConfig
from repro.simulation.runner import run_crowd_trial
from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.store import RunStore


@dataclass
class StoreStats:
    """Store traffic counters, accumulated across a session's runs."""

    figure_hits: int = 0   #: whole figures served straight from the store
    task_hits: int = 0     #: tasks skipped because their key was stored
    task_misses: int = 0   #: tasks actually executed (and then stored)

    def snapshot(self) -> "StoreStats":
        return StoreStats(self.figure_hits, self.task_hits,
                          self.task_misses)

    def since(self, earlier: "StoreStats") -> "StoreStats":
        """Counter deltas between ``earlier`` and now (for per-run logs)."""
        return StoreStats(
            self.figure_hits - earlier.figure_hits,
            self.task_hits - earlier.task_hits,
            self.task_misses - earlier.task_misses,
        )


class DatasetCache:
    """Memoizes generated datasets across arms and runs.

    Keys are ``(maker, sorted kwargs)`` tuples — for the standard makers
    that is ``(maker, num_train, num_test, seed, ...)`` — so the six figure
    experiments stop regenerating identical synthetic datasets per arm.
    """

    def __init__(self):
        self._store: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Any, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
            self._store[key] = builder()
        return self._store[key]

    def split(self, maker: str, kwargs: Dict[str, Any]) -> Tuple[Dataset, Dataset]:
        """A ``(train, test)`` split from the :data:`~repro.registry.DATASETS`
        registry, cached on ``(maker, kwargs)``."""
        key = (maker, _kwargs_key(kwargs))
        return self.get(key, lambda: DATASETS.create(maker, **kwargs))

    def clear(self) -> None:
        self._store.clear()


def _kwargs_key(kwargs: Dict[str, Any]) -> str:
    """A hashable, order-insensitive cache key for a kwargs dict.

    Canonical JSON rather than ``tuple(sorted(items))`` so JSON-authored
    specs with list/dict-valued kwargs stay cacheable.
    """
    return json.dumps(kwargs, sort_keys=True, default=repr)


# --------------------------------------------------------------------- #
# Task execution (module-level so payloads cross process boundaries)    #
# --------------------------------------------------------------------- #

#: Per-process table of resolved datasets, installed by
#: :func:`_init_task_data` (once per pool worker via the executor
#: initializer, or in-process for serial runs).  Task payloads carry
#: ``*_ref`` keys into this table instead of the datasets themselves, so
#: a figure's multi-MB arrays cross each process boundary once rather
#: than once per (arm, trial) task.
_TASK_DATA: Dict[str, Any] = {}


def _init_task_data(table: Dict[str, Any]) -> None:
    global _TASK_DATA
    _TASK_DATA = table


def _accepts_kwarg(factory: Callable[..., Any], name: str) -> bool:
    """Whether ``factory(**{name}: ...)`` is a valid call."""
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return True
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return True
    return name in params


def _build_model(payload: Dict[str, Any], data: Dataset):
    """Instantiate the arm's model, defaulting shape kwargs from ``data``."""
    name = payload["model"]
    factory = MODELS.get(name)
    kwargs = dict(payload["model_kwargs"])
    if _accepts_kwarg(factory, "num_features"):
        kwargs.setdefault("num_features", data.num_features)
    if _accepts_kwarg(factory, "num_classes"):
        kwargs.setdefault("num_classes", data.num_classes)
    if _accepts_kwarg(factory, "l2_regularization"):
        kwargs.setdefault("l2_regularization", payload["l2_regularization"])
    return factory(**kwargs)


def _budget(payload: Dict[str, Any]) -> Optional[CentralizedBudget]:
    epsilon = payload["epsilon"]
    if math.isinf(epsilon):
        return None
    return CentralizedBudget.even_split(epsilon)


def _simulation_config(payload: Dict[str, Any]) -> SimulationConfig:
    num_devices = payload["num_devices"]
    # τ in time units from a delay expressed in Δ = 1/(M·F_s) multiples
    # (Section V-C), via a probe config so the conversion tracks
    # SimulationConfig's sampling-rate semantics.
    probe = SimulationConfig(num_devices=num_devices)
    tau = probe.delay_in_sample_units(payload["delay_multiples"])
    return SimulationConfig(
        num_devices=num_devices,
        batch_size=payload["batch_size"],
        epsilon=payload["epsilon"],
        learning_rate_constant=payload["learning_rate_constant"],
        link_delays=LinkDelays.uniform(tau) if tau > 0 else LinkDelays.zero(),
        num_passes=payload["num_passes"],
    )


def _crowd_rate_constant(payload: Dict[str, Any]) -> float:
    if payload["schedule"] != "inverse_sqrt":
        raise ConfigurationError(
            "crowd arms use the server's c/sqrt(t) optimizer; "
            f"schedule '{payload['schedule']}' is only available for "
            "central_sgd/decentralized arms"
        )
    return float(payload["schedule_kwargs"].get("constant", 1.0))


def _run_crowd_trial(payload: Dict[str, Any]) -> ErrorCurve:
    """One Crowd-ML trial — trial ``payload["trial"]`` of ``run_crowd_trials``."""
    train: Dataset = payload["train"]
    return run_crowd_trial(
        _build_model(payload, train),
        train,
        payload["test"],
        _simulation_config(payload),
        payload["base_seed"],
        payload["trial"],
        partial(PARTITIONERS.get(payload["partition"]),
                **payload["partition_kwargs"]),
    ).curve


def _run_central_batch(payload: Dict[str, Any]) -> float:
    from repro.baselines import CentralizedBatchTrainer

    train: Dataset = payload["train"]
    trainer = CentralizedBatchTrainer(
        _build_model(payload, train), budget=_budget(payload),
        **payload["trainer_kwargs"],
    )
    rng = np.random.default_rng(payload["seed"])
    return trainer.evaluate(train, payload["test"], rng)


def _run_central_sgd(payload: Dict[str, Any]) -> ErrorCurve:
    from repro.baselines import CentralizedSGDTrainer

    train: Dataset = payload["train"]
    schedule = SCHEDULES.create(payload["schedule"], **payload["schedule_kwargs"])
    trainer = CentralizedSGDTrainer(
        _build_model(payload, train),
        schedule,
        batch_size=payload["batch_size"],
        budget=_budget(payload),
        **payload["trainer_kwargs"],
    )
    rng = np.random.default_rng(payload["seed"])
    return trainer.fit(
        train, payload["test"], rng, num_passes=payload["num_passes"]
    ).curve


def _run_decentralized(payload: Dict[str, Any]) -> ErrorCurve:
    from repro.baselines import DecentralizedTrainer

    train: Dataset = payload["train"]
    schedule = SCHEDULES.create(payload["schedule"], **payload["schedule_kwargs"])
    trainer = DecentralizedTrainer(
        _build_model(payload, train), schedule, **payload["trainer_kwargs"]
    )
    partition = PARTITIONERS.get(payload["partition"])
    parts = partition(
        train, payload["num_devices"], np.random.default_rng(payload["seed"]),
        **payload["partition_kwargs"],
    )
    return trainer.fit(
        parts, payload["test"], np.random.default_rng(payload["seed"] + 1),
        num_passes=payload["num_passes"],
    ).curve


def _run_activity_online(payload: Dict[str, Any]) -> ErrorCurve:
    """Fig. 3's setting: per-device streams, online time-averaged error."""
    streams: List[Dataset] = payload["streams"]
    config = SimulationConfig(
        num_devices=len(streams),
        batch_size=payload["batch_size"],
        learning_rate_constant=_crowd_rate_constant(payload),
    )
    simulator = CrowdSimulator(
        _build_model(payload, streams[0]), streams, payload["test"], config,
        seed=payload["seed"],
    )
    averaged = simulator.run().time_averaged_error()
    iterations = np.arange(1, averaged.shape[0] + 1)
    return ErrorCurve(iterations, averaged)


#: Placeholder for task slots not yet filled from cache or execution
#: (results themselves are never ``None``-adjacent sentinels).
_PENDING = object()

_EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "crowd": _run_crowd_trial,
    "central_batch": _run_central_batch,
    "central_sgd": _run_central_sgd,
    "decentralized": _run_decentralized,
    "activity_online": _run_activity_online,
}


def _execute_task(payload: Dict[str, Any]) -> Any:
    payload = dict(payload)
    for name in ("train", "test", "streams"):
        ref = payload.pop(f"{name}_ref", None)
        if ref is not None:
            payload[name] = _TASK_DATA[ref]
    return _EXECUTORS[payload["kind"]](payload)


# --------------------------------------------------------------------- #
# The session                                                           #
# --------------------------------------------------------------------- #


class ExperimentSession:
    """Executes :class:`ExperimentSpec`\\ s, optionally in parallel.

    Parameters
    ----------
    max_workers:
        ``None``/``0``/``1`` runs every task serially in-process; ``N > 1``
        fans tasks out over a ``ProcessPoolExecutor``.  Results are
        bit-identical either way (seeding is derived per task, and curves
        are averaged in deterministic trial order).
    dataset_cache:
        Optional shared :class:`DatasetCache`; by default each session owns
        one, reused across ``run`` calls.
    store:
        Optional :class:`~repro.store.RunStore`.  When given, every task
        and every finished figure is persisted under its content key;
        stored tasks are skipped on later runs (``store_stats`` counts
        the traffic), and results — fresh, cached, or mixed — stay
        bit-identical to a storeless run.
    refresh:
        With a store, ``True`` recomputes everything and overwrites the
        stored entries (the ``--force`` of ``regenerate_figures.py``).

    Examples
    --------
    >>> import math
    >>> from repro.experiments import ArmSpec, ExperimentScale, ExperimentSpec
    >>> spec = ExperimentSpec(
    ...     name="demo", dataset="mnist_like",
    ...     scale=ExperimentScale(num_train=300, num_test=100, num_devices=5,
    ...                           num_trials=1, num_passes=1),
    ...     arms=(ArmSpec(label="crowd", schedule_kwargs={"constant": 30.0}),))
    >>> result = ExperimentSession().run(spec, seed=0)
    >>> 0.0 <= result.curves["crowd"].final_error <= 1.0
    True
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        dataset_cache: Optional[DatasetCache] = None,
        store: Optional["RunStore"] = None,
        refresh: bool = False,
    ):
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be >= 0, got {max_workers}"
            )
        self._max_workers = max_workers
        self._cache = dataset_cache if dataset_cache is not None else DatasetCache()
        self._store = store
        self._refresh = refresh
        self._store_stats = StoreStats()

    @property
    def max_workers(self) -> Optional[int]:
        return self._max_workers

    @property
    def dataset_cache(self) -> DatasetCache:
        return self._cache

    @property
    def store(self) -> Optional["RunStore"]:
        return self._store

    @property
    def store_stats(self) -> StoreStats:
        return self._store_stats

    # -- dataset resolution ------------------------------------------- #

    def _split_request(
        self, spec: ExperimentSpec, arm: ArmSpec, seed: int
    ) -> Tuple[str, Dict[str, Any]]:
        """The ``(maker, kwargs)`` identifying an arm's train/test split.

        This request — not the generated arrays — is what enters a
        task's store key as its ``data_desc``.
        """
        maker = arm.dataset if arm.dataset is not None else spec.dataset
        if maker is None:
            raise ConfigurationError(
                f"arm '{arm.label}' has no dataset and experiment "
                f"'{spec.name}' declares no default"
            )
        kwargs = {**spec.dataset_kwargs, **arm.dataset_kwargs}
        if spec.scale is not None:
            kwargs.setdefault("num_train", spec.scale.num_train)
            kwargs.setdefault("num_test", spec.scale.num_test)
        kwargs.setdefault("seed", seed)
        return maker, kwargs

    def _streams_request(
        self, spec: ExperimentSpec, arm: ArmSpec, seed: int
    ) -> Dict[str, Any]:
        """The full recipe for an arm's per-device streams (Fig. 3)."""
        maker = arm.dataset if arm.dataset is not None else spec.dataset
        if maker is None:
            maker = "activity_stream"
        kwargs = {**spec.dataset_kwargs, **arm.dataset_kwargs}
        num_devices = kwargs.pop(
            "num_devices",
            spec.scale.num_devices if spec.scale is not None else None,
        )
        if num_devices is None:
            raise ConfigurationError(
                f"activity_online arm '{arm.label}' needs num_devices "
                "(dataset_kwargs or spec.scale)"
            )
        try:
            samples = kwargs.pop("samples_per_device")
        except KeyError:
            raise ConfigurationError(
                f"activity_online arm '{arm.label}' needs samples_per_device "
                "in dataset_kwargs"
            ) from None
        return {
            "dataset": maker,
            "layout": "streams",
            "num_devices": num_devices,
            "samples_per_device": samples,
            "test_samples": kwargs.pop("test_samples", 150),
            "seed": seed,
            "dataset_kwargs": kwargs,
        }

    def _resolve_streams(
        self, request: Dict[str, Any]
    ) -> Tuple[List[Dataset], Dataset]:
        """Per-device online streams plus a test stream (Fig. 3 layout)."""
        maker = request["dataset"]
        num_devices = request["num_devices"]
        samples = request["samples_per_device"]
        test_samples = request["test_samples"]
        seed = request["seed"]
        kwargs = request["dataset_kwargs"]
        key = (maker, "streams", num_devices, samples, test_samples, seed,
               _kwargs_key(kwargs))

        def build() -> Tuple[List[Dataset], Dataset]:
            streams = [
                DATASETS.create(maker, num_samples=samples,
                                rng=np.random.default_rng(seed + d), **kwargs)
                for d in range(num_devices)
            ]
            test = DATASETS.create(maker, num_samples=test_samples,
                                   rng=np.random.default_rng(seed + 900),
                                   **kwargs)
            return streams, test

        return self._cache.get(key, build)

    # -- payload construction ----------------------------------------- #

    @staticmethod
    def _data_ref(obj: Any, table: Dict[str, Any],
                  ids: Dict[int, str]) -> str:
        """Intern ``obj`` in the run's data table, returning its ref key."""
        if id(obj) not in ids:
            ids[id(obj)] = f"data{len(table)}"
            table[ids[id(obj)]] = obj
        return ids[id(obj)]

    def _arm_payloads(
        self, spec: ExperimentSpec, arm: ArmSpec, seed: int
    ) -> List[Dict[str, Any]]:
        """Build an arm's task payloads — datasets stay *unresolved*.

        Each payload carries a ``data_desc`` (the resolved dataset
        request) instead of data refs; :meth:`_materialize` turns the
        request into arrays later, and only for tasks that actually
        execute — a store-resumed run never regenerates datasets for
        cached tasks.
        """
        scale = spec.scale
        arm_seed = (arm.seed_override if arm.seed_override is not None
                    else seed + arm.seed_offset)
        base = {
            "kind": arm.kind,
            "model": arm.model,
            "model_kwargs": dict(arm.model_kwargs),
            "partition": arm.partition,
            "partition_kwargs": dict(arm.partition_kwargs),
            "schedule": arm.schedule,
            "schedule_kwargs": dict(arm.schedule_kwargs),
            "trainer_kwargs": dict(arm.trainer_kwargs),
            "batch_size": arm.batch_size,
            "epsilon": arm.epsilon,
            "delay_multiples": arm.delay_multiples,
            "l2_regularization": arm.l2_regularization,
        }
        if arm.kind == "activity_online":
            base.update(seed=arm_seed,
                        data_desc=self._streams_request(spec, arm, seed))
            return [base]

        maker, dataset_kwargs = self._split_request(spec, arm, seed)
        base["data_desc"] = {"dataset": maker, "layout": "split",
                             "dataset_kwargs": dataset_kwargs}
        num_passes = arm.num_passes
        if num_passes is None:
            num_passes = scale.num_passes if scale is not None else 1
        base["num_passes"] = num_passes

        if arm.kind == "crowd":
            if scale is None:
                raise ConfigurationError(
                    f"crowd arm '{arm.label}' requires spec.scale"
                )
            base.update(
                num_devices=scale.num_devices,
                learning_rate_constant=_crowd_rate_constant(base),
                base_seed=arm_seed,
            )
            return [dict(base, trial=t) for t in range(scale.num_trials)]

        if arm.kind == "decentralized":
            if scale is None:
                raise ConfigurationError(
                    f"decentralized arm '{arm.label}' requires spec.scale"
                )
            base["num_devices"] = scale.num_devices
        base["seed"] = arm_seed
        return [base]

    # -- execution ----------------------------------------------------- #

    def _materialize(self, payload: Dict[str, Any],
                     table: Dict[str, Any], ids: Dict[int, str]) -> None:
        """Resolve a payload's ``data_desc`` into in-memory data refs.

        Called only for payloads about to execute; the shared
        :class:`DatasetCache` makes repeated requests for one split
        generate it once.
        """
        desc = payload["data_desc"]
        if desc.get("layout") == "streams":
            streams, test = self._resolve_streams(desc)
            payload["streams_ref"] = self._data_ref(streams, table, ids)
        else:
            train, test = self._cache.split(desc["dataset"],
                                            desc["dataset_kwargs"])
            payload["train_ref"] = self._data_ref(train, table, ids)
        payload["test_ref"] = self._data_ref(test, table, ids)

    def _execute(self, payloads: List[Dict[str, Any]],
                 table: Dict[str, Any],
                 on_result: Optional[Callable[[int, Any], None]] = None,
                 ) -> List[Any]:
        workers = self._max_workers
        if workers is not None and workers > 1 and len(payloads) > 1:
            # The data table ships once per worker (via the initializer),
            # not once per task.  Futures are consumed as they complete
            # — ``on_result`` (the store write) fires the moment a task
            # finishes, regardless of submission order, so a killed
            # parallel sweep keeps every completed result — while the
            # returned list is assembled by submission index, keeping
            # downstream averaging deterministic.
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_task_data, initargs=(table,),
            ) as pool:
                futures = {pool.submit(_execute_task, payload): index
                           for index, payload in enumerate(payloads)}
                outputs: List[Any] = [_PENDING] * len(payloads)
                for future in as_completed(futures):
                    index = futures[future]
                    output = future.result()
                    if on_result is not None:
                        on_result(index, output)
                    outputs[index] = output
                return outputs
        _init_task_data(table)
        try:
            outputs = []
            for index, payload in enumerate(payloads):
                output = _execute_task(payload)
                if on_result is not None:
                    on_result(index, output)
                outputs.append(output)
            return outputs
        finally:
            _init_task_data({})

    def _run_payloads(self, payloads: List[Dict[str, Any]],
                      extras: List[Dict[str, Any]]) -> List[Any]:
        """Execute ``payloads``, going through the store when attached.

        Cached tasks come back decoded from disk — without their
        datasets ever being generated; the rest are materialized,
        executed, and stored one by one as their results arrive, so
        whatever finished before an interruption survives it.
        """
        table: Dict[str, Any] = {}
        ids: Dict[int, str] = {}
        if self._store is None:
            for payload in payloads:
                self._materialize(payload, table, ids)
            return self._execute(payloads, table)
        from repro.store.keys import task_key

        store = self._store
        keys = [task_key(p) for p in payloads]
        outputs: List[Any] = [_PENDING] * len(payloads)
        if not self._refresh:
            for index, key in enumerate(keys):
                cached = store.get(key)
                if cached is not None:
                    outputs[index] = cached
                    self._store_stats.task_hits += 1
        pending = [i for i in range(len(payloads))
                   if outputs[i] is _PENDING]
        for index in pending:
            self._materialize(payloads[index], table, ids)

        def persist(position: int, output: Any) -> None:
            index = pending[position]
            outputs[index] = output
            self._store_stats.task_misses += 1
            store.put(keys[index], output, extra=extras[index],
                      overwrite=self._refresh)

        self._execute([payloads[i] for i in pending], table,
                      on_result=persist)
        return outputs

    def run(self, spec: ExperimentSpec, seed: int = 0) -> FigureResult:
        """Execute every arm of ``spec`` and assemble a :class:`FigureResult`.

        ``seed`` is the run's root seed: the dataset seed and (offset by
        each arm's ``seed_offset``) every arm's stream seed.

        With a store attached, tasks whose content key is already stored
        are not executed; fresh tasks are persisted the moment they
        finish (a killed sweep resumes from disk), and the assembled
        figure is stored whole, so repeating a completed run executes
        nothing at all.
        """
        if self._store is not None:
            from repro.store.keys import figure_key

            fig_key = figure_key(spec.to_dict(), seed)
            if not self._refresh:
                cached = self._store.get(fig_key)
                if isinstance(cached, FigureResult):
                    self._store_stats.figure_hits += 1
                    return cached

        payloads: List[Dict[str, Any]] = []
        extras: List[Dict[str, Any]] = []
        plan: List[Tuple[ArmSpec, bool, slice]] = []
        for arm, is_reference in (
            [(a, False) for a in spec.arms]
            + [(a, True) for a in spec.reference_arms]
        ):
            arm_payloads = self._arm_payloads(spec, arm, seed)
            start = len(payloads)
            payloads.extend(arm_payloads)
            extras.extend(
                {"record": "task", "experiment": spec.name,
                 "label": arm.label, "arm_kind": arm.kind,
                 "seed": seed, "trial": p.get("trial")}
                for p in arm_payloads
            )
            plan.append((arm, is_reference, slice(start, len(payloads))))

        outputs = self._run_payloads(payloads, extras)

        result = FigureResult(spec.name)
        for arm, is_reference, where in plan:
            chunk = outputs[where]
            if is_reference:
                if len(chunk) != 1 or not isinstance(chunk[0], float):
                    raise ConfigurationError(
                        f"reference arm '{arm.label}' must produce a single "
                        f"scalar (use kind='central_batch')"
                    )
                result.reference_lines[arm.label] = chunk[0]
            elif arm.kind == "crowd":
                result.curves[arm.label] = average_curves(chunk)
            else:
                result.curves[arm.label] = chunk[0]

        if self._store is not None:
            self._store.put(
                fig_key, result,
                extra={"record": "figure", "experiment": spec.name,
                       "seed": seed, "spec": spec.to_dict()},
                overwrite=self._refresh,
            )
        return result
