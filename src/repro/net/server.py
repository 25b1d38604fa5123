"""A full DHARMA node on a UDP socket: the engine behind ``dharma serve``.

:class:`ServeNode` composes a :class:`~repro.net.udp.UdpTransport` with a
:class:`~repro.dht.node.KademliaNode` and handles the one genuinely
networked bootstrap problem: joining an overlay knowing only a peer's
``host:port``.  Kademlia's JOIN needs the bootstrap peer's *node id* (to
seed the routing table before the self-lookup), which the simulator gets
for free from shared process memory.  Over real sockets :meth:`ServeNode.probe`
first PINGs the address and learns the id from the response, then runs the
standard join.

Credential verification defaults **off** for served nodes: Likir's
:class:`~repro.dht.likir.CertificationService` is an in-process registry in
this reproduction, and independent OS processes have no shared instance to
verify against.  Pass ``verify_credentials=True`` plus a certification
service to opt back in (e.g. several ServeNodes inside one test process).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dht.api import DHTClient
from repro.dht.batched_lookup import BatchedLookupEngine
from repro.dht.likir import CertificationService, Identity
from repro.dht.messages import PingRequest
from repro.dht.node import KademliaNode, NodeConfig, RefreshPass
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact
from repro.net.udp import UdpTransport, UdpTransportConfig

__all__ = ["ServeNodeStats", "ServeNode"]


@dataclass(frozen=True, slots=True)
class ServeNodeStats:
    """One status snapshot of a serving node (what ``dharma serve`` prints)."""

    address: str
    node_id: str
    joined: bool
    routing_contacts: int
    #: Peers this node has itself watched fail and is currently shunning.
    suspects: int
    stored_items: int
    rpcs_served: dict[str, int]
    transport: dict


class ServeNode:
    """One DHARMA node running on its own UDP endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        node_id: NodeID | None = None,
        node_config: NodeConfig | None = None,
        transport_config: UdpTransportConfig | None = None,
        certification: CertificationService | None = None,
    ) -> None:
        self.transport = UdpTransport(host=host, port=port, config=transport_config)
        try:
            if node_id is None:
                # Endpoint-derived by default: deterministic across restarts
                # of the same host:port, distinct across endpoints.
                node_id = NodeID.hash_of(f"dharma|{self.transport.local_address()}")
            self.node = KademliaNode(
                node_id,
                network=self.transport,
                config=node_config or NodeConfig(verify_credentials=False),
                certification=certification,
            )
            # All but the ping-before-evict case is answered on udp-recv.
            self.transport.serve_inline(self.node.dispatch_nowait)
            #: Clock after the previous :meth:`refresh` (or at start-up): a
            #: bucket some lookup walked since then is not refreshed.
            self._refreshed_at = self.transport.clock.now
        except BaseException:
            self.transport.close()
            raise

    # -- identity ------------------------------------------------------------ #

    @property
    def address(self) -> str:
        return self.node.address

    @property
    def node_id(self) -> NodeID:
        return self.node.node_id

    # -- membership ---------------------------------------------------------- #

    def probe(self, address: str) -> Contact:
        """Learn the node id behind *address* with one PING.

        Raises a :class:`~repro.net.base.TransportError` subclass when
        nothing answers -- the caller decides whether a dead bootstrap peer
        is fatal.
        """
        response = self.transport.send(
            self.address,
            address,
            PingRequest(sender_id=self.node.node_id, sender_address=self.address),
        )
        return Contact(node_id=response.responder_id, address=address)

    def bootstrap(self, join: str | None) -> Contact | None:
        """Join the overlay: through the peer at *join*, or found a new one."""
        if join is None:
            self.node.join(None)
            return None
        contact = self.probe(join)
        self.node.join(contact)
        return contact

    def refresh(self, rng: random.Random | None = None) -> RefreshPass:
        """Refresh the routing buckets no lookup walked since the previous
        call (periodic upkeep while serving) under
        :meth:`~repro.dht.node.KademliaNode.refresh_buckets`' rule, and
        return that pass."""
        outcome = self.node.refresh_buckets(rng, since=self._refreshed_at)
        self._refreshed_at = self.transport.clock.now
        return outcome

    # -- application access --------------------------------------------------- #

    def client(
        self,
        identity: Identity | None = None,
        batched: bool = True,
    ) -> DHTClient:
        """A :class:`~repro.dht.api.DHTClient` using this node as access point."""
        engine = BatchedLookupEngine(self.node) if batched else None
        return DHTClient(self.node, identity=identity, engine=engine)

    # -- observability -------------------------------------------------------- #

    def stats(self) -> ServeNodeStats:
        return ServeNodeStats(
            address=self.address,
            node_id=self.node_id.hex(),
            joined=self.node.joined,
            routing_contacts=len(self.node.routing_table),
            suspects=self.node.suspect_count,
            stored_items=len(self.node.storage),
            rpcs_served=dict(self.node.rpcs_served),
            transport=self.transport.stats.snapshot(),
        )

    # -- lifecycle ------------------------------------------------------------ #

    def close(self) -> None:
        if self.node.joined:
            self.node.leave()
        self.transport.close()

    def __enter__(self) -> "ServeNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
