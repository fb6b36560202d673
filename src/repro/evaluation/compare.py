"""Exact structural comparison of run traces.

The simulator promises *bit-identical* :class:`~repro.simulation.trace
.RunTrace`\\ s across execution strategies — synchronous fused rounds
versus the event-driven
:class:`~repro.network.transport.SimulatedTransport`, and today's code
versus the recorded golden fingerprints in ``tests/data/`` — not
"close", identical.  :func:`assert_traces_identical` is that promise made
executable: it compares every field of two traces with exact equality
(no tolerances) and raises an :class:`AssertionError` naming the first
field that differs.  The recorded-trace regression suite
(``tests/simulation/test_trace_regression.py``) and the throughput
benchmarks both gate on it.

The field list is derived from the ``RunTrace`` dataclass itself, so a
newly added trace field can never silently escape the contract.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.simulation.trace import RunTrace


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact elementwise equality (NaNs compare equal positionally)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _arrays_equal(a, b)
    return a == b


def trace_differences(a: RunTrace, b: RunTrace) -> List[str]:
    """Names of the ``RunTrace`` fields on which ``a`` and ``b`` differ.

    Iterates :func:`dataclasses.fields` of ``RunTrace`` — fields added in
    the future are compared automatically (with exact array equality for
    ndarray values); only the error curve is special-cased into its two
    components for a sharper diagnostic.
    """
    differing = []
    for field in dataclasses.fields(RunTrace):
        value_a = getattr(a, field.name)
        value_b = getattr(b, field.name)
        if field.name == "curve":
            if not _arrays_equal(value_a.iterations, value_b.iterations):
                differing.append("curve.iterations")
            if not _arrays_equal(value_a.errors, value_b.errors):
                differing.append("curve.errors")
        elif not _values_equal(value_a, value_b):
            differing.append(field.name)
    return differing


def traces_identical(a: RunTrace, b: RunTrace) -> bool:
    """True iff every trace field matches with exact (bitwise) equality."""
    return not trace_differences(a, b)


def assert_traces_identical(a: RunTrace, b: RunTrace, context: str = "") -> None:
    """Raise ``AssertionError`` naming the differing fields, if any."""
    differing = trace_differences(a, b)
    if differing:
        prefix = f"{context}: " if context else ""
        raise AssertionError(
            f"{prefix}traces differ on: {', '.join(differing)}"
        )
