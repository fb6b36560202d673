"""Simulated crowd environment: config, event-driven simulator, trial runner."""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "ChurnSchedule": "churn",
    "CommunicationStats": "trace",
    "CrowdSimulator": "simulator",
    "RunTrace": "trace",
    "SelectionResult": "selection",
    "SimulationConfig": "config",
    "TrialSetReport": "runner",
    "run_crowd_trials": "runner",
    "select_hyperparameters": "selection",
})
