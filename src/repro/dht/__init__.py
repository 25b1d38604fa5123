"""Kademlia/Likir DHT substrate (Section IV-A, refs [12] and [13]).

DHARMA stores its folksonomy blocks on a structured overlay.  The paper's
implementation runs on Likir, an identity-aware layer on top of Kademlia.  This
subpackage provides an in-process, fully deterministic reproduction of that
substrate:

* :mod:`~repro.dht.node_id` -- the 160-bit identifier space and XOR metric;
* :mod:`~repro.dht.routing_table` -- k-buckets and the Kademlia routing table;
* :mod:`~repro.dht.messages` -- the RPC vocabulary (PING, STORE, FIND_NODE,
  FIND_VALUE, APPEND);
* :mod:`~repro.dht.storage` -- per-node key/value storage with the
  token-append semantics and index-side filtering DHARMA relies on;
* :mod:`~repro.dht.node` -- the Kademlia node (server side of every RPC plus
  the iterative lookup client);
* :mod:`~repro.dht.likir` -- the identity layer (identity-bound node ids and
  authenticated content, modelled after Likir);
* :mod:`~repro.dht.api` -- the PUT/GET/APPEND facade with overlay-lookup
  accounting used by the DHARMA protocols;
* :mod:`~repro.dht.bootstrap` -- overlay construction helpers;
* :mod:`~repro.dht.maintenance` -- replica maintenance under churn (periodic
  republish + bucket refresh with merge-on-store semantics).

Nodes exchange messages through the simulated network of
:mod:`repro.simulation.network`, so an entire overlay lives in one Python
process and experiments are reproducible given a seed.
"""

from repro.dht.node_id import NodeID, xor_distance
from repro.dht.routing_table import Contact, KBucket, RoutingTable
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.api import DHTClient, LookupStats
from repro.dht.batched_lookup import BatchedLookupEngine, BatchStats
from repro.dht.likir import Identity, SignedValue, LikirAuthError
from repro.dht.bootstrap import Overlay, build_overlay
from repro.dht.maintenance import (
    MaintenanceConfig,
    MaintenanceStats,
    NodeMaintenance,
    OverlayMaintenance,
)

__all__ = [
    "NodeID",
    "xor_distance",
    "Contact",
    "KBucket",
    "RoutingTable",
    "KademliaNode",
    "NodeConfig",
    "DHTClient",
    "LookupStats",
    "BatchedLookupEngine",
    "BatchStats",
    "Identity",
    "SignedValue",
    "LikirAuthError",
    "Overlay",
    "build_overlay",
    "MaintenanceConfig",
    "MaintenanceStats",
    "NodeMaintenance",
    "OverlayMaintenance",
]
