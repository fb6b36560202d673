"""Edge gateway tier: batch-aggregating intermediaries between devices
and the server.

The paper's crowd reaches the server through edge infrastructure; this
package makes that tier explicit so the server sees thousands of
gateways instead of millions of device sockets:

* :class:`~repro.gateway.aggregator.GatewayAggregator` — the
  transport-agnostic pooling engine: buffer device check-ins, flush
  upstream as one batch on size threshold or deadline, whichever fires
  first.
* :class:`~repro.gateway.topology.TwoTierTopology` /
  :class:`~repro.gateway.topology.GatewayProfile` — configuration:
  device→gateway assignment (static map or a named policy from
  :data:`repro.registry.GATEWAY_ASSIGNMENTS`) plus per-gateway link
  properties, modelled separately per hop.
* :class:`~repro.gateway.transport.GatewayTransport` — the simulator
  plug-in: event-driven :class:`~repro.network.transport.Link`\\ s of
  two-hop legs and event-queue-clocked flushes.
* :class:`~repro.gateway.edge.EdgeGateway` — the live-service
  counterpart: pools :class:`~repro.serve.remote.RemoteDevice` uploads
  into single ``POST /v1/checkins`` requests against a running
  ``repro-serve``.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "AggregatorStats": "aggregator",
    "GatewayAggregator": "aggregator",
    "GatewayProfile": "topology",
    "TwoTierTopology": "topology",
})
