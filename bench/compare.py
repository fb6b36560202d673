"""Compare two result files of ``bench/run.py``, one row per
(end-to-end metric, workload) pair; there is no combined score.

    python3 bench/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first of two sets of
runs of one commit), ``B`` the candidate.  Each row prints both medians
with their quartiles, the bound from ``BENCHMARK.json`` and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is.
``unresolved``
    the run-to-run spread of either side (quartile distance over median)
    is wider than the bound and the two sets of runs overlap, so the
    files cannot tell; every run of B reading better than every run of A
    resolves it to ``ok``, every run reading worse to ``worse``.

Exits 1 on any ``worse``, 0 otherwise; ``unresolved`` rows are printed,
counted and left to the reader (more runs resolve them).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from catalog import load_contract


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0  # after this, smaller is better
    a, b = [sign * v for v in a], [sign * v for v in b]
    (a_low, a_mid, a_high), (b_low, b_mid, b_high) = quartiles(a), quartiles(b)
    worse = b_mid - a_mid > bound * abs(a_mid)
    spread = max((a_high - a_low) / abs(a_mid), (b_high - b_low) / abs(b_mid))
    if spread > bound:
        if max(b) < min(a):
            return "ok"
        if min(b) > max(a) and worse:
            return "worse"
        return "unresolved"
    return "worse" if worse else "ok"


def runs_of(results: dict, workload: str, metric: str) -> List[float]:
    entry = results["workloads"].get(workload)
    return [run["metrics"][metric] for run in entry["runs"]] if entry else []


def summary(values: Sequence[float]) -> str:
    """``q1 / median / q3 (spread)``, the spread as the driver takes it:
    quartile distance over median."""
    low, mid, high = quartiles(values)
    return f"{low:.5g} / {mid:.5g} / {high:.5g} ({(high - low) / abs(mid):.1%})"


def compare(a: dict, b: dict, contract: dict) -> Dict[str, int]:
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<16} {'metric':<13} {'A q1 / median / q3 (spread)':>40} "
          f"{'B q1 / median / q3 (spread)':>40} {'change':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a_runs = runs_of(a, workload, metric["name"])
            b_runs = runs_of(b, workload, metric["name"])
            if not a_runs or not b_runs:
                continue
            result = verdict(a_runs, b_runs, metric["bound"], metric["better"] == "lower")
            counts[result] += 1
            change = statistics.median(b_runs) / statistics.median(a_runs) - 1.0
            print(f"{workload:<16} {metric['name']:<13} {summary(a_runs):>40} "
                  f"{summary(b_runs):>40} {change:>+8.1%} {metric['bound']:>6.2f}  {result}"
                  f"  ({len(a_runs)} vs {len(b_runs)} runs, {metric['unit']}, "
                  f"{metric['better']} is better)")
    return counts


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    counts = compare(documents[0], documents[1], load_contract())
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
