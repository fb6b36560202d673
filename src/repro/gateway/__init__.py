"""Edge gateway tier: batch-aggregating intermediaries between devices
and a live server.

The paper's crowd reaches the server through edge infrastructure; this
package makes that tier explicit so the server sees thousands of
gateways instead of millions of device sockets:

* :class:`~repro.gateway.edge.EdgeGateway` — pools
  :class:`~repro.serve.remote.RemoteDevice` uploads into single
  ``POST /v1/checkins`` requests against a running ``repro-serve`` and
  shares one check-out per flush epoch.
* :class:`~repro.gateway.aggregator.GatewayAggregator` — its pooling
  engine: buffer device check-ins, flush upstream as one batch at
  ``flush_size``, keep custody of a batch whose upload failed.
* :class:`~repro.gateway.topology.TwoTierTopology` — the device→gateway
  assignment (static map or a named policy from
  :data:`repro.registry.GATEWAY_ASSIGNMENTS`).
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "AggregatorStats": "aggregator",
    "GatewayAggregator": "aggregator",
    "TwoTierTopology": "topology",
})
