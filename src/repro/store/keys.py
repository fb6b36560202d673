"""Stable content-addressed keys for stored results.

A store key is the SHA-256 of a *canonical JSON* rendering of everything
that determines a result bit-for-bit: for one task that is the execution
payload :class:`~repro.experiments.session.ExperimentSession` builds
(arm fields, resolved dataset request, effective seed, trial index); for
a whole figure it is the spec's dict form plus the run seed.

Canonicalization rules (``canonicalize``):

* dicts sort by key; tuples become lists;
* non-finite floats become the strings ``"__inf__"`` / ``"__-inf__"`` /
  ``"__nan__"`` so the canonical form is strict JSON (``allow_nan`` off);
* NumPy scalars collapse to their Python equivalents;
* anything else is a :class:`TypeError` — keys never silently depend on
  ``repr`` of an unknown object.

Arm *labels* are intentionally absent from task keys (they never enter
the payload): renaming an arm keeps its cache entries, and two arms that
differ only in label share them.  Bump :data:`KEY_FORMAT` whenever
execution semantics change in a way that invalidates stored results.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

import numpy as np

from repro.utils.digest import sha256

#: Version stamp mixed into every key; bump to invalidate all entries.
KEY_FORMAT = 1

#: Payload entries that reference in-memory data tables, never content.
_REF_SUFFIX = "_ref"


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-compatible data (see module doc)."""
    if isinstance(obj, Mapping):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return "__nan__"
        if math.isinf(value):
            return "__inf__" if value > 0 else "__-inf__"
        return value
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a store key"
    )


def canonical_json(obj: Any) -> str:
    """The canonical JSON string hashed by :func:`digest`."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def digest(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON form."""
    return sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def task_key(payload: Mapping[str, Any]) -> str:
    """Key for one execution task (one trial / one baseline run).

    ``payload`` is the dict built by ``ExperimentSession._arm_payloads``:
    every field that shapes the computation, plus ``*_ref`` handles into
    the in-memory data table.  The refs are dropped — the dataset is
    identified by the payload's ``data_desc`` (maker + resolved kwargs),
    not by where it happens to live in this process.
    """
    material = {k: v for k, v in payload.items()
                if not k.endswith(_REF_SUFFIX)}
    material["__record__"] = "task"
    material["__format__"] = KEY_FORMAT
    return digest(material)


def figure_key(spec_dict: Mapping[str, Any], seed: int) -> str:
    """Key for a complete figure run: spec dict form + run seed."""
    return digest({
        "__record__": "figure",
        "__format__": KEY_FORMAT,
        "spec": spec_dict,
        "seed": int(seed),
    })
