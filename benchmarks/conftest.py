"""Shared configuration for the figure-regeneration benchmarks.

Each ``test_figN_*`` benchmark regenerates one figure of the paper at
reduced scale (see ``ExperimentScale.benchmark``), prints the arm table,
and asserts the figure's qualitative claims (who wins, by what factor,
where crossovers fall).  Absolute wall-clock is reported by
pytest-benchmark but is not itself the point — the *result rows* are.

Set the environment variable ``REPRO_SCALE=paper`` to run the full
paper-scale experiments (hours), or ``REPRO_SCALE=smoke`` for a quick pass.
Shared helpers (``run_once``/``publish_table``) live in
:mod:`benchmarks._harness`.
"""

from __future__ import annotations

import pytest

from benchmarks._harness import scale_name
from repro.experiments import ExperimentScale


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Experiment scale selected via the REPRO_SCALE env var."""
    return getattr(ExperimentScale, scale_name())()
