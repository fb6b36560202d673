"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the *data* form of one figure (or any custom
sweep): a named list of :class:`ArmSpec`\\ s plus a default dataset and an
:class:`~repro.experiments.scale.ExperimentScale`.  Every component an arm
needs — model, dataset maker, partitioner, schedule — is referenced by its
:mod:`repro.registry` name with a kwargs dict, so specs serialize losslessly
to JSON and back: figure definitions become data, and new sweeps need no
code changes.

Specs carry no randomness: the run seed is supplied to
:meth:`repro.experiments.session.ExperimentSession.run`, and each arm's
``seed_offset`` decorrelates arms within one run exactly as the original
hand-written figure code did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.experiments.scale import ExperimentScale
from repro.utils.exceptions import ConfigurationError

#: Arm kinds understood by the session (see ``session.py`` for execution).
ARM_KINDS = ("crowd", "central_batch", "central_sgd", "decentralized",
             "activity_online")


def _decode_float(value: Any) -> float:
    """Accept JSON numbers plus the strings ``"inf"``/``"-inf"``."""
    return float(value)


@dataclass(frozen=True)
class ArmSpec:
    """One arm of an experiment, declared entirely by registry names + data.

    Attributes
    ----------
    label:
        Key of this arm in the resulting :class:`FigureResult`.
    kind:
        One of :data:`ARM_KINDS` — which executor runs the arm:
        ``crowd`` (the event-driven Crowd-ML simulator, averaged over the
        scale's trials), ``central_batch`` (scalar reference line),
        ``central_sgd`` / ``decentralized`` (baseline curves), or
        ``activity_online`` (Fig. 3's per-device streaming setup).
    model / model_kwargs:
        :data:`repro.registry.MODELS` name and constructor kwargs.
        ``num_features``/``num_classes`` default to the dataset's shape.
    dataset / dataset_kwargs:
        Optional per-arm override of the experiment's default dataset.
    partition / partition_kwargs:
        :data:`repro.registry.PARTITIONERS` name (crowd/decentralized arms).
    schedule / schedule_kwargs:
        :data:`repro.registry.SCHEDULES` name; for ``crowd`` arms only
        ``inverse_sqrt`` is supported (the server optimizer of Eq. 5) and
        ``schedule_kwargs["constant"]`` supplies c.
    batch_size / epsilon / delay_multiples / l2_regularization:
        The paper's b, per-sample ε (``inf`` = non-private), delay in Δ
        units, and λ.
    num_passes:
        Overrides the scale's pass count when not ``None``.
    seed_offset:
        Added to the run seed so arms draw decorrelated streams.
    seed_override:
        When not ``None``, this arm's stream seed is pinned to exactly
        this value, independent of the run seed (the dataset still follows
        the run seed).  Figs. 4/7 use it to keep the historical behavior
        of their Crowd-ML arm, whose trials were always seeded from 0.
    trainer_kwargs:
        Extra kwargs for baseline trainer constructors (e.g.
        ``evaluation_devices`` for ``decentralized``).
    """

    label: str
    kind: str = "crowd"
    model: str = "logistic"
    model_kwargs: Mapping[str, Any] = field(default_factory=dict)
    dataset: Optional[str] = None
    dataset_kwargs: Mapping[str, Any] = field(default_factory=dict)
    partition: str = "iid"
    partition_kwargs: Mapping[str, Any] = field(default_factory=dict)
    schedule: str = "inverse_sqrt"
    schedule_kwargs: Mapping[str, Any] = field(default_factory=dict)
    batch_size: int = 1
    epsilon: float = math.inf
    delay_multiples: float = 0.0
    l2_regularization: float = 0.0
    num_passes: Optional[int] = None
    seed_offset: int = 0
    seed_override: Optional[int] = None
    trainer_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ARM_KINDS:
            raise ConfigurationError(
                f"unknown arm kind '{self.kind}' (expected one of {ARM_KINDS})"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.delay_multiples < 0:
            raise ConfigurationError("delay_multiples must be non-negative")
        # Copy the kwarg mappings so a spec never aliases caller state.
        for name in ("model_kwargs", "dataset_kwargs", "partition_kwargs",
                     "schedule_kwargs", "trainer_kwargs"):
            object.__setattr__(self, name, dict(getattr(self, name)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; only non-default fields are emitted."""
        out: dict[str, Any] = {"label": self.label, "kind": self.kind}
        defaults = {f.name: f.default for f in fields(self)}
        for f in fields(self):
            if f.name in ("label", "kind"):
                continue
            value = getattr(self, f.name)
            if f.name.endswith("_kwargs"):
                if value:
                    out[f.name] = dict(value)
            elif f.name == "epsilon":
                # The default (inf = non-private) is omitted; finite ε
                # emits as a plain JSON number.
                if not math.isinf(value):
                    out[f.name] = float(value)
            elif value != defaults[f.name]:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArmSpec":
        """Inverse of :meth:`to_dict` (unknown keys are an error)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ArmSpec fields: {sorted(unknown)}"
            )
        payload = dict(data)
        if "epsilon" in payload:
            payload["epsilon"] = _decode_float(payload["epsilon"])
        return cls(**payload)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: name, arms, reference arms, dataset, and scale.

    ``arms`` produce :class:`FigureResult` curves; ``reference_arms``
    (typically ``central_batch``) produce the scalar reference lines.
    ``dataset``/``dataset_kwargs`` are the default maker for arms that do
    not override it; ``num_train``/``num_test``/``seed`` are filled in from
    the scale and run seed at execution time.
    """

    name: str
    arms: tuple[ArmSpec, ...]
    scale: Optional[ExperimentScale] = None
    reference_arms: tuple[ArmSpec, ...] = ()
    dataset: Optional[str] = None
    dataset_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "reference_arms", tuple(self.reference_arms))
        object.__setattr__(self, "dataset_kwargs", dict(self.dataset_kwargs))
        labels = [arm.label for arm in self.arms + self.reference_arms]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"duplicate arm labels in experiment '{self.name}'"
            )
        # Arms produce curves; reference arms produce scalar lines.  A
        # central_batch arm yields a single float, so it can only live in
        # reference_arms — catch the mismatch before anything executes.
        for arm in self.arms:
            if arm.kind == "central_batch":
                raise ConfigurationError(
                    f"arm '{arm.label}' is central_batch (a scalar "
                    "reference line); declare it in reference_arms"
                )
        for arm in self.reference_arms:
            if arm.kind != "central_batch":
                raise ConfigurationError(
                    f"reference arm '{arm.label}' must be "
                    f"kind='central_batch', got '{arm.kind}'"
                )

    def with_scale(self, scale: ExperimentScale) -> "ExperimentSpec":
        """A copy of this spec at a different scale."""
        return ExperimentSpec(
            name=self.name, arms=self.arms, scale=scale,
            reference_arms=self.reference_arms, dataset=self.dataset,
            dataset_kwargs=self.dataset_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Serialization                                                      #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialization."""
        out: dict[str, Any] = {
            "name": self.name,
            "arms": [arm.to_dict() for arm in self.arms],
        }
        if self.scale is not None:
            out["scale"] = self.scale.to_dict()
        if self.reference_arms:
            out["reference_arms"] = [a.to_dict() for a in self.reference_arms]
        if self.dataset is not None:
            out["dataset"] = self.dataset
        if self.dataset_kwargs:
            out["dataset_kwargs"] = dict(self.dataset_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        known = {"name", "arms", "scale", "reference_arms", "dataset",
                 "dataset_kwargs"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ExperimentSpec fields: {sorted(unknown)}"
            )
        return cls(
            name=data["name"],
            arms=tuple(ArmSpec.from_dict(a) for a in data.get("arms", ())),
            scale=(ExperimentScale.from_dict(data["scale"])
                   if "scale" in data else None),
            reference_arms=tuple(
                ArmSpec.from_dict(a) for a in data.get("reference_arms", ())
            ),
            dataset=data.get("dataset"),
            dataset_kwargs=data.get("dataset_kwargs", {}),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON string.

        The default ``inf`` ε (non-private) is simply omitted, so the
        output is standard JSON with no ``Infinity`` literals.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output.

        Hand-authored JSON may also write ``"epsilon": "inf"`` explicitly.
        """
        return cls.from_dict(json.loads(text))
