"""Configuration for the simulated crowd environment (Section V-C)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from repro.core.adaptive import BatchPolicy
from repro.network.latency import LinkDelays
from repro.network.outage import NoOutage, OutageModel
from repro.simulation.churn import ChurnSchedule
from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulated Crowd-ML run.

    Attributes
    ----------
    num_devices:
        M (the paper uses 1000 for the image experiments, 7 for activity).
    batch_size:
        Minibatch size b.
    epsilon:
        Total per-sample privacy level ε (``math.inf`` = the ε⁻¹ = 0 arms).
    learning_rate_constant:
        c in η(t) = c/√t (Eq. 5).
    link_delays:
        The τ_req/τ_co/τ_ci distributions (``LinkDelays.zero()`` for the
        no-delay arms).
    sampling_rate:
        F_s — samples generated per time unit per device.
    num_passes:
        Passes through each device's local data (the paper uses up to 5).
    holdout_fraction:
        Remark 2 held-out fraction on each device.
    buffer_factor:
        Buffer capacity B = buffer_factor × b.
    num_snapshots:
        How many (iteration, test-error) points to record.
    projection_radius:
        Radius R of the parameter ball W (``None`` = unconstrained).
    outage:
        Communication failure model (reliable by default).
    max_iterations:
        Optional hard cap on server updates (defaults to "all data").
    target_error:
        Optional ρ stopping threshold.
    churn:
        Optional :class:`~repro.simulation.churn.ChurnSchedule`; devices
        sense only inside their activity windows (Fig. 2's join/leave).
    batch_policy_factory:
        Optional zero-arg callable building a fresh
        :class:`~repro.core.adaptive.BatchPolicy` per device — the
        §IV-B3 adaptive-minibatch refinement.  ``None`` keeps b fixed.
    transport:
        How protocol messages travel.  ``"auto"`` (default) picks
        ``"direct"`` — fused synchronous rounds, no per-message heap
        events — whenever every link delay is exactly zero and the
        network is reliable, and the event-driven
        :class:`~repro.network.transport.SimulatedTransport` otherwise.
        ``"direct"``/``"simulated"`` force a choice (``"direct"`` and
        ``"http"`` raise unless the config is zero-delay and
        outage-free).  The two styles produce bit-identical
        :class:`~repro.simulation.trace.RunTrace`\\ s on every config
        where both are valid.  ``"http"`` drives a **live**
        :class:`~repro.serve.service.CrowdService` at ``server_url``
        through :class:`~repro.serve.remote.RemoteServerCore`: the same
        fused-round schedule as ``"direct"`` (and, for a server hosting
        the matching spec, a bit-identical trace), with the server side
        in another process.  Never auto-selected.  Server-owned knobs
        (``learning_rate_constant``, ``projection_radius``,
        ``max_iterations``, ``target_error``) must stay at their
        defaults here — configure them on the server (``repro-serve``)
        instead; non-default values are rejected rather than silently
        ignored.
    server_url:
        Base URL of the remote service (``transport="http"`` only),
        e.g. ``"http://127.0.0.1:8900"``.
    http_retries:
        ``transport="http"`` only: extra attempts the HTTP client makes
        on transient failures (connection refused/reset, 5xx), with
        exponential backoff — how a run rides out a server bounce.
        Default 0 = fail fast, the historical behaviour.
    """

    num_devices: int
    batch_size: int = 1
    epsilon: float = math.inf
    learning_rate_constant: float = 1.0
    link_delays: LinkDelays = field(default_factory=LinkDelays.zero)
    sampling_rate: float = 1.0
    num_passes: int = 1
    holdout_fraction: float = 0.0
    buffer_factor: int = 50
    num_snapshots: int = 60
    projection_radius: Optional[float] = 100.0
    outage: OutageModel = field(default_factory=NoOutage)
    max_iterations: Optional[int] = None
    target_error: Optional[float] = None
    churn: Optional["ChurnSchedule"] = None
    batch_policy_factory: Optional[Callable[[], "BatchPolicy"]] = None
    transport: str = "auto"
    server_url: Optional[str] = None
    http_retries: int = 0

    def __post_init__(self):
        if self.transport not in ("auto", "direct", "simulated", "http"):
            raise ConfigurationError(
                f"transport must be 'auto', 'direct', 'simulated' or 'http', "
                f"got {self.transport!r}"
            )
        if self.transport == "http" and not self.server_url:
            raise ConfigurationError(
                "transport='http' needs server_url (e.g. 'http://127.0.0.1:8900')"
            )
        if self.transport != "http" and self.server_url is not None:
            raise ConfigurationError(
                f"server_url is only meaningful with transport='http', "
                f"got transport={self.transport!r}"
            )
        if self.http_retries < 0:
            raise ConfigurationError(
                f"http_retries must be >= 0, got {self.http_retries}"
            )
        if self.http_retries and self.transport != "http":
            raise ConfigurationError(
                f"http_retries is only meaningful with transport='http', "
                f"got transport={self.transport!r}"
            )
        if self.churn is not None and self.churn.num_devices != self.num_devices:
            raise ConfigurationError(
                f"churn schedule covers {self.churn.num_devices} devices, "
                f"config has {self.num_devices}"
            )
        if self.num_devices < 1:
            raise ConfigurationError(f"num_devices must be >= 1, got {self.num_devices}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate_constant <= 0:
            raise ConfigurationError("learning_rate_constant must be positive")
        if self.sampling_rate <= 0:
            raise ConfigurationError("sampling_rate must be positive")
        if self.num_passes < 1:
            raise ConfigurationError(f"num_passes must be >= 1, got {self.num_passes}")
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ConfigurationError("holdout_fraction must be in [0, 1)")
        if self.buffer_factor < 1:
            raise ConfigurationError("buffer_factor must be >= 1")
        if self.num_snapshots < 1:
            raise ConfigurationError("num_snapshots must be >= 1")
        if self.projection_radius is not None and self.projection_radius <= 0:
            raise ConfigurationError("projection_radius must be positive")
        if (
            self.transport in ("direct", "http")
            and not self.direct_transport_eligible
        ):
            raise ConfigurationError(
                f"transport={self.transport!r} runs fused synchronous "
                f"rounds: it needs zero link delays and a reliable network "
                f"(use transport='simulated' to model delays/outages)"
            )
        if self.transport == "http":
            # The live server owns the optimizer and the stopping rule;
            # accepting these knobs here and silently not applying them
            # would be exactly the divergence the parity contract
            # forbids, so reject anything the remote side cannot see.
            # (Defaults come from the dataclass fields themselves, so
            # this check can never drift from the declared defaults.)
            defaults = {f.name: f.default for f in fields(self)}
            server_owned = (
                "learning_rate_constant", "projection_radius",
                "max_iterations", "target_error",
            )
            mismatched = [
                name for name in server_owned
                if getattr(self, name) != defaults[name]
            ]
            if mismatched:
                raise ConfigurationError(
                    f"transport='http': {mismatched} are owned by the live "
                    f"server — leave them at their defaults here and "
                    f"configure repro-serve (or the hosted ServerCore) "
                    f"with the intended values instead"
                )

    @property
    def direct_transport_eligible(self) -> bool:
        """Whether fused synchronous rounds are exactly equivalent here.

        True iff every link delay is exactly zero (and RNG-free) and the
        network is reliable — the conditions under which nothing can
        interleave inside a round trip.
        """
        return self.link_delays.is_zero and isinstance(self.outage, NoOutage)

    def resolved_transport(self) -> str:
        """The concrete transport ``"auto"`` resolves to for this config."""
        if self.transport == "auto":
            return "direct" if self.direct_transport_eligible else "simulated"
        return self.transport

    def delay_in_sample_units(self, delta_multiples: float) -> float:
        """Convert a delay expressed in Δ = 1/(M·F_s) units to time units.

        Section V-C measures delays in Δ, "the number of samples generated
        by all devices during the delay": a delay of k·Δ spans the time in
        which the crowd generates k samples.
        """
        return float(delta_multiples) / (self.num_devices * self.sampling_rate)
