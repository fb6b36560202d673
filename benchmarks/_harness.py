"""Shared helpers for the figure-regeneration benchmarks.

Importable as ``benchmarks._harness`` (the ``benchmarks`` directory is a
package), so benchmark modules do not rely on pytest inserting the
``benchmarks/`` directory itself onto ``sys.path``.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Any, Mapping, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def scale_name() -> str:
    """The ``REPRO_SCALE`` the run was asked for (default ``benchmark``)."""
    name = os.environ.get("REPRO_SCALE", "benchmark")
    return name if name in ("paper", "smoke") else "benchmark"


def git_commit() -> str:
    """``HEAD`` of the checkout the benchmarks run from (``-dirty`` when
    tracked files differ from it), or ``"unknown"``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=os.path.dirname(__file__),
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()

    try:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _metrics_payload(metrics: Any) -> Mapping[str, Any]:
    """Normalize ``metrics`` to the JSON written next to the text table.

    A :class:`~repro.experiments.FigureResult` becomes
    ``{"arms": {label: {"final_error", "tail_error"}}, "reference_lines"}``;
    any other mapping is written as ``{"arms": metrics}`` untouched.
    """
    curves = getattr(metrics, "curves", None)
    if curves is not None:  # duck-typed FigureResult
        return {
            "arms": {
                label: {"final_error": curve.final_error,
                        "tail_error": curve.tail_error()}
                for label, curve in curves.items()
            },
            "reference_lines": dict(metrics.reference_lines),
        }
    return {"arms": dict(metrics)}


def publish_table(name: str, text: str,
                  metrics: Optional[Any] = None, seed: int = 0) -> None:
    """Print a result table and persist it under benchmarks/results/.

    pytest captures stdout of passing tests, so the persisted copy is what
    survives a quiet run.

    When ``metrics`` is given (a ``FigureResult`` or a plain mapping of
    arm → numbers), a machine-readable ``<name>.json`` lands beside the
    text table so the per-arm error trajectory is diffable across PRs.
    It carries its provenance: the ``REPRO_SCALE`` it ran at, the
    experiment ``seed`` (every figure runner defaults to 0) and the
    ``git_commit`` of the checkout.
    """
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    if metrics is not None:
        payload = {
            "name": name, "scale": scale_name(), "seed": seed,
            "git_commit": git_commit(), **_metrics_payload(metrics),
        }
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
