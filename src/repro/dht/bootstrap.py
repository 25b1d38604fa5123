"""Overlay construction helpers.

:func:`build_overlay` wires together a :class:`~repro.simulation.network.SimulatedNetwork`,
a Likir :class:`~repro.dht.likir.CertificationService` and ``n`` Kademlia
nodes, joining them one by one through the first node (the usual bootstrap
procedure).  The resulting :class:`Overlay` keeps the pieces together and
offers convenience accessors used by examples, tests and benchmarks.

Membership is managed through :meth:`Overlay.add_node`,
:meth:`Overlay.remove_node` (graceful leave, data republished through
rotating surviving helpers) and :meth:`Overlay.crash_node` (abrupt failure,
no republication).  All three keep an address index current, prune departed
nodes from :attr:`Overlay.nodes` -- long churn runs would otherwise grow the
list without bound and degrade every address lookup to an O(n) scan -- and
notify registered membership listeners, which is how the replica-maintenance
subsystem (:mod:`repro.dht.maintenance`) attaches its per-node timers.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.dht.likir import CertificationService, Identity
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.api import DHTClient
from repro.simulation.clock import SimulationClock
from repro.simulation.network import NetworkConfig, SimulatedNetwork

__all__ = ["Overlay", "build_overlay"]

#: A membership listener receives the node that joined or left.
MembershipListener = Callable[[KademliaNode], None]


@dataclass(slots=True)
class Overlay:
    """A fully wired in-process overlay.

    Slotted: a 10k-node cluster keeps exactly one ``Overlay``, but the
    membership layer is on the hot path of every churn event, and slots keep
    attribute access on it a fixed-offset load instead of a dict probe.
    """

    network: SimulatedNetwork
    certification: CertificationService
    nodes: list[KademliaNode] = field(default_factory=list)
    node_config: NodeConfig = field(default_factory=NodeConfig)
    _rng: random.Random = field(default_factory=random.Random, repr=False)
    _by_address: dict[str, KademliaNode] = field(default_factory=dict, repr=False)
    _on_join: list[MembershipListener] = field(default_factory=list, repr=False)
    _on_leave: list[MembershipListener] = field(default_factory=list, repr=False)
    #: Round-robin cursor over survivors used to rotate republish helpers.
    _helper_cursor: int = field(default=0, repr=False)
    #: Monotone counter behind default ``peer-NNNNNN`` user names.  Deriving
    #: names from ``len(self.nodes)`` would reissue a live identity once
    #: departed nodes are pruned from the roster (the certification service
    #: returns the previously issued identity for a known user, so two live
    #: nodes would share one node id).
    _peer_counter: int = field(default=0, repr=False)

    # -- accessors --------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def clock(self) -> SimulationClock:
        return self.network.clock

    def node_by_address(self, address: str) -> KademliaNode | None:
        node = self._by_address.get(address)
        if node is not None:
            return node
        # Nodes appended to ``self.nodes`` directly (bulk wiring, tests)
        # bypass the index; find and memoise them once.
        for node in self.nodes:
            if node.address == address:
                self._by_address[address] = node
                return node
        return None

    def live_nodes(self) -> list[KademliaNode]:
        """The nodes currently registered on the network."""
        return [n for n in self.nodes if self.network.is_registered(n.address)]

    def random_node(self) -> KademliaNode:
        """A uniformly random live node (used as an access point)."""
        live = self.live_nodes()
        if not live:
            raise RuntimeError("overlay has no live node")
        return live[self._rng.randrange(len(live))]

    def client(
        self,
        identity: Identity | None = None,
        node: KademliaNode | None = None,
    ) -> DHTClient:
        """Create an application client bound to *node* (random by default)."""
        return DHTClient(node or self.random_node(), identity=identity)

    def register_user(self, user: str) -> Identity:
        """Issue a Likir identity for an application user."""
        return self.certification.register(user)

    # -- membership --------------------------------------------------------- #

    def subscribe(
        self,
        on_join: MembershipListener | None = None,
        on_leave: MembershipListener | None = None,
    ) -> None:
        """Register membership listeners (used by maintenance/monitoring)."""
        if on_join is not None:
            self._on_join.append(on_join)
        if on_leave is not None:
            self._on_leave.append(on_leave)

    def adopt_node(self, node: KademliaNode) -> KademliaNode:
        """Track an externally constructed (already wired) node."""
        self.nodes.append(node)
        self._by_address[node.address] = node
        for listener in self._on_join:
            listener(node)
        return node

    def _next_peer_name(self) -> str:
        while True:
            candidate = f"peer-{self._peer_counter:06d}"
            self._peer_counter += 1
            # Skip names certified outside this counter (bulk wiring
            # registers peer-000000..N-1 directly).
            if not self.certification.is_registered(candidate):
                return candidate

    def add_node(self, user: str | None = None) -> KademliaNode:
        """Create one more node, certify it and join it through a live peer."""
        user = user or self._next_peer_name()
        identity = self.certification.register(user)
        node = KademliaNode(
            node_id=identity.node_id,
            network=self.network,
            config=self.node_config,
            certification=self.certification,
        )
        bootstrap = None
        for existing in self.nodes:
            if self.network.is_registered(existing.address):
                bootstrap = existing.contact
                break
        node.join(bootstrap)
        return self.adopt_node(node)

    def _forget(self, node: KademliaNode) -> None:
        """Drop *node* from the roster and notify leave listeners."""
        self._by_address.pop(node.address, None)
        try:
            self.nodes.remove(node)
        except ValueError:
            pass
        for listener in self._on_leave:
            listener(node)

    def remove_node(self, node: KademliaNode, republish: bool = True) -> None:
        """Make *node* leave gracefully; optionally republish its stored
        items through surviving peers so data is not lost.

        Helpers rotate round-robin over the survivors: funnelling every
        republished item through one fixed peer would hotspot it with the
        full lookup/STORE fan-out of the departing node's inventory.  The
        STOREs themselves are merge-aware at the receiving replicas (see
        :meth:`~repro.dht.storage.LocalStorage.put`), so republishing a
        snapshot of a counter block can never erase concurrent APPENDs.
        """
        items = node.leave(republish=republish)
        self._forget(node)
        survivors = self.live_nodes() if republish and items else []
        if survivors:
            for key, value in items.items():
                helper = survivors[self._helper_cursor % len(survivors)]
                self._helper_cursor += 1
                helper.store(key, value)

    def crash_node(self, node: KademliaNode) -> None:
        """Abrupt failure: *node* vanishes without republishing anything.

        Its blocks survive only on the other replicas; periodic maintenance
        (:mod:`repro.dht.maintenance`) restores full replication from them.
        """
        node.leave(republish=False)
        self._forget(node)

    def storage_load(self) -> dict[str, int]:
        """Number of stored keys per node address (hotspot/balance measure)."""
        return {
            node.address: len(node.storage)
            for node in self.nodes
            if self.network.is_registered(node.address)
        }


def build_overlay(
    num_nodes: int,
    node_config: NodeConfig | None = None,
    network_config: NetworkConfig | None = None,
    seed: int | None = 0,
) -> Overlay:
    """Create an overlay of *num_nodes* certified Kademlia nodes.

    Parameters
    ----------
    num_nodes:
        Number of nodes to create and join.
    node_config:
        Kademlia parameters shared by all nodes.
    network_config:
        Latency / loss model of the simulated transport.
    seed:
        Seed used for the certification service and random node selection
        (pass ``None`` for non-deterministic behaviour).
    """
    if num_nodes < 1:
        raise ValueError("an overlay needs at least one node")
    network = SimulatedNetwork(config=network_config or NetworkConfig(seed=seed))
    certification = CertificationService(seed=seed)
    overlay = Overlay(
        network=network,
        certification=certification,
        node_config=node_config or NodeConfig(),
        _rng=random.Random(seed),
    )
    for _ in range(num_nodes):
        overlay.add_node()
    return overlay
