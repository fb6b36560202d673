"""Print fresh benchmark readings beside the committed artifacts' values.

    python benchmarks/artifact_drift.py sim_throughput protocol_throughput device_round

For each name, reads ``benchmarks/results/<name>.json`` as the run just
rewrote it and as committed at ``HEAD`` (``git show``), and prints a
markdown table: one row per numeric value under ``arms``, with the fresh
reading, the committed one and fresh / committed.  Each table's heading
names both sides' ``REPRO_SCALE`` and commit, since a smoke run against a
benchmark-scale artifact compares different crowds.  Record only: it
exits 0 whatever the ratios, and says so when either side is missing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def committed(name: str) -> Optional[dict]:
    """The artifact as committed at ``HEAD``, or None."""
    try:
        text = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/results/{name}.json"],
            cwd=RESULTS_DIR, capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return json.loads(text)


def fresh(name: str) -> Optional[dict]:
    """The artifact as the working copy holds it, or None."""
    try:
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:
        return None


def numbers(artifact: dict) -> Dict[str, float]:
    """``{"arm / key": value}`` for every numeric value under ``arms``."""
    return {
        f"{arm} / {key}": float(value)
        for arm, row in artifact.get("arms", {}).items()
        for key, value in row.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def table(name: str) -> str:
    new, old = fresh(name), committed(name)
    if new is None or old is None:
        missing = "fresh run" if new is None else "committed artifact"
        return f"#### `{name}`: no {missing}, nothing to compare\n"
    lines = [
        f"#### `{name}`: fresh ({new.get('scale')}, {new.get('git_commit')}) "
        f"vs committed ({old.get('scale')}, {old.get('git_commit')})",
        "",
        "| value | fresh | committed | fresh / committed |",
        "|---|---:|---:|---:|",
    ]
    new_values, old_values = numbers(new), numbers(old)
    for key, value in new_values.items():
        before = old_values.get(key)
        if before is None:
            lines.append(f"| {key} | {value:.4g} | — | — |")
        else:
            ratio = f"{value / before:.3f}" if before else "—"
            lines.append(f"| {key} | {value:.4g} | {before:.4g} | {ratio} |")
    return "\n".join(lines) + "\n"


def main(names) -> int:
    print("\n".join(table(name) for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
