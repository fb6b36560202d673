"""Remote service API: the versioned wire protocol + HTTP deployment path.

* :mod:`repro.serve.wire` — the versioned envelope schema
  (:data:`~repro.serve.wire.PROTOCOL_VERSION`, typed error payloads).
* :mod:`repro.serve.host` — :class:`~repro.serve.host.HttpHost`, the
  one stdlib HTTP front (listener, body caps, typed error envelopes,
  counters, ``/v1/metrics``) that every server mounts its routes on.
* :class:`CrowdService` — the host owning a
  :class:`~repro.core.server_core.ServerCore`
  (``/v1/checkout``, ``/v1/checkins``, ``/v1/status``, ``/v1/join``).
* :class:`ServiceClient` — the JSON-over-HTTP client.
* :class:`HttpTransport` / :class:`RemoteDevice` — the unchanged device
  runtime driving a live server; :class:`RemoteServerCore` — the
  fused-round proxy the :class:`~repro.simulation.simulator.CrowdSimulator`
  uses under ``SimulationConfig(transport="http", server_url=...)``.
* ``repro-serve`` (:mod:`repro.serve.cli`) — launch a service from the
  command line; :mod:`repro.serve.launch` spawns and signals it as a
  subprocess.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "PROTOCOL_VERSION": "wire",
    "CheckinBatchResult": "wire",
    "CrowdService": "service",
    "ErrorCode": "wire",
    "HttpTransport": "remote",
    "RemoteAuthenticationError": "client",
    "RemoteDevice": "remote",
    "RemoteServerCore": "remote",
    "RemoteServiceError": "client",
    "ServiceClient": "client",
    "ServiceStatus": "wire",
    "WireError": "wire",
})
