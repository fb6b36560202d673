"""In-memory span log for the traced run (SNIPPETS.md Snippet 1's idea:
record events, derive every report from them).

A span is ``[name, start, end, parent, round_id]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``round_id`` ties the
spans of one device round together.  One recorder per client thread, so
recording takes no lock; ``merge`` joins them when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence

NAME, START, END, PARENT, ROUND = range(5)


class SpanRecorder:
    def __init__(self):
        self.spans: List[list] = []
        self.round_id = -1
        self._open: List[int] = []

    def begin_round(self) -> None:
        """Spans recorded from now on belong to a new round."""
        self.round_id += 1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.round_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()


def merge(recorders: Iterable[SpanRecorder]) -> List[list]:
    """Concatenate recorders, re-basing parent indices and round ids."""
    merged: List[list] = []
    rounds = 0
    for recorder in recorders:
        offset = len(merged)
        for name, start, end, parent, round_id in recorder.spans:
            merged.append([name, start, end,
                           parent + offset if parent >= 0 else -1,
                           round_id + rounds])
        rounds += recorder.round_id + 1
    return merged


def millis(span: Sequence) -> float:
    return (span[END] - span[START]) * 1e3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``repro.obs`` histograms use)."""
    ordered = sorted(values)
    return ordered[int(round(q / 100.0 * (len(ordered) - 1)))]


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_millis(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [millis(span) for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= millis(span)
    return own


def totals_by_group(spans: Sequence[list], values: Sequence[float],
                    group_of: Dict[int, int]) -> Dict[str, Dict[int, float]]:
    """``{name: {group: summed value}}`` where a span's group is
    ``group_of[round_id]`` (spans of unlisted rounds are skipped)."""
    sums: Dict[str, Dict[int, float]] = {}
    for span, value in zip(spans, values):
        group = group_of.get(span[ROUND])
        if group is not None:
            by_group = sums.setdefault(span[NAME], {})
            by_group[group] = by_group.get(group, 0.0) + value
    return sums
