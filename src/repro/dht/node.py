"""The Kademlia overlay node.

:class:`KademliaNode` combines the routing table, the local storage and the
RPC endpoints, and offers the client-side operations the DHARMA layer builds
on: ``store`` (PUT), ``retrieve`` (GET), ``append`` (commutative counter
update) and the underlying iterative lookups.

A node talks to its peers exclusively through a
:class:`~repro.net.base.Transport` -- the in-process simulator or a real UDP
socket, the node code is the same -- and is otherwise a faithful Kademlia
participant (k-buckets refreshed by every message, lookup with ``alpha``
concurrency, replication of stored values on the ``replicate`` closest
nodes).  Ping-before-evict applies to requests only: a contact that answers
an RPC into a full bucket is parked in its replacement cache, and a stale
resident leaves on its first failed RPC.

Failure handling
----------------

What a node *saw* outranks what it is *told*.  A peer whose RPC spent the
transport's whole retry budget (:class:`~repro.net.base.RequestTimeout`) or
whose address is gone (:class:`~repro.simulation.network.NodeUnreachable`) is
**struck**: evicted from the routing table and remembered as a suspect for
:data:`SUSPECT_BASE_MS`, doubling per consecutive strike up to
:data:`SUSPECT_CAP_MS`.  While the window runs, other peers mentioning it is
hearsay and changes nothing: lookups do not query it, cached routes and
replica walks step over it -- so a dead peer costs one timeout, not one per
lookup.  First-hand contact lifts the suspicion at once (a request *from*
that id, or an RPC it answers); after the window one mention buys it one
more try.  A single lost datagram on the simulator (``MessageDropped``: no
retry layer underneath) and an oversize frame (``DatagramTooLarge``: nothing
was sent, or the peer answered) are not evidence of death and strike nobody.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import BlockType
from repro.dht.likir import CertificationService, Identity, LikirAuthError, SignedValue
from repro.dht.lookup import LookupOutcome, iterative_lookup
from repro.dht.messages import (
    AppendRequest,
    AppendResponse,
    FindNodeRequest,
    FindNodeResponse,
    FindValueRequest,
    FindValueResponse,
    PingRequest,
    PingResponse,
    RPCRequest,
    StoreRequest,
    StoreResponse,
)
from repro.dht.node_id import NodeID
from repro.dht.routing_table import CompactRoutingTable, Contact
from repro.dht.storage import LocalStorage
from repro.net.base import DatagramTooLarge, RequestTimeout, Transport, TransportError
from repro.perf import PERF
from repro.simulation.network import NodeUnreachable

__all__ = [
    "NodeConfig",
    "KademliaNode",
    "RefreshPass",
    "reserve_addresses",
    "SUSPECT_BASE_MS",
    "SUSPECT_CAP_MS",
    "MAX_SUSPECTS",
]

#: How long (transport-clock ms) a first strike keeps a peer suspected; each
#: consecutive strike doubles it (hivemind's blacklist: 5 s x 2^n).
SUSPECT_BASE_MS = 5_000.0
#: Ceiling of the doubling: a peer that stays dead is retried this often.
SUSPECT_CAP_MS = 600_000.0
#: Hard bound on remembered suspects per node, so a flood of dead or spoofed
#: ids cannot grow the map: at the bound, the suspicion that ended (or ends)
#: soonest makes room, so lapsed entries are the first to go.
MAX_SUSPECTS = 64


class _AddressAllocator:
    """Process-wide source of default ``node-NNNNNN`` transport addresses.

    A plain counter, except it can be fast-forwarded: restoring a cluster
    snapshot in a fresh process re-registers addresses the counter has never
    issued, and a later join must not collide with them.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value

    def reserve(self, minimum: int) -> None:
        """Ensure future addresses are numbered ``>= minimum``."""
        if minimum > self._next:
            self._next = minimum


_ADDRESSES = _AddressAllocator()


def reserve_addresses(minimum: int) -> None:
    """Fast-forward default address numbering past *minimum* (snapshot restore)."""
    _ADDRESSES.reserve(minimum)


@dataclass(frozen=True, slots=True)
class NodeConfig:
    """Kademlia parameters of a node.

    ``k`` is the bucket size / replication parameter, ``alpha`` the lookup
    concurrency, ``replicate`` the number of closest nodes a value is written
    to (the paper's cost model counts one *lookup* per PUT regardless of the
    replication fan-out, because the replicas are contacted directly once the
    lookup has located them).
    """

    k: int = 20
    alpha: int = 3
    replicate: int = 3
    verify_credentials: bool = True
    #: Only admit contacts whose node id was issued by the certification
    #: service (Likir's id-certification turned into routing admission
    #: control): self-chosen Sybil ids never enter the routing table and
    #: eclipse-poisoned lookup responses are filtered.  Requires a
    #: certification service; a no-op without one.
    certified_contacts: bool = False
    #: Harden the write path: unsigned STOREs are only accepted when they
    #: merge monotonically into resident counter state (replica maintenance
    #: republishes counter snapshots unsigned), never when they would
    #: replace a resident block wholesale; APPENDs must come from a
    #: certified sender id.  Requires a certification service.
    require_signed_writes: bool = False

    def __post_init__(self) -> None:
        if self.k < 1 or self.alpha < 1 or self.replicate < 1:
            raise ValueError("k, alpha and replicate must all be >= 1")
        if self.replicate > self.k:
            raise ValueError("replicate cannot exceed k")


@dataclass(frozen=True, slots=True)
class RefreshPass:
    """What one :meth:`KademliaNode.refresh_buckets` pass did.

    ``refreshed + skipped == buckets`` always holds; ``pinged`` is the part
    of ``refreshed`` that one answered PING vouched for (no lookup).
    """

    #: Non-empty buckets at the start of the pass.
    buckets: int
    #: Buckets refreshed: walked, covered by the self-lookup, or vouched for.
    refreshed: int
    #: Full far buckets whose least-recently-seen contact answered a PING.
    pinged: int

    @property
    def skipped(self) -> int:
        """Buckets the refresh-skip rule left alone (a lookup walked them)."""
        return self.buckets - self.refreshed


class KademliaNode:
    """One participant of the overlay."""

    def __init__(
        self,
        node_id: NodeID,
        network: Transport,
        config: NodeConfig | None = None,
        address: str | None = None,
        certification: CertificationService | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config or NodeConfig()
        #: The transport seam the node speaks through: the overlay's shared
        #: ``SimulatedNetwork``, or a ``UdpTransport`` that puts the same
        #: node on a real socket.
        self.transport = network
        self.address = (
            address or self.transport.local_address() or f"node-{_ADDRESSES.take():06d}"
        )
        self.routing_table = CompactRoutingTable(node_id, k=self.config.k)
        self.storage = LocalStorage()
        self.certification = certification
        self.joined = False
        #: Malicious-behavior seam for fault-injection harnesses: when set,
        #: every served RPC response passes through this hook before leaving
        #: the node, so a "compromised" peer can lie (forged FIND_VALUE
        #: payloads, fabricated FIND_NODE contacts) without subclassing.
        #: Honest operation never sets it.
        self.rpc_hook: Callable[[RPCRequest, Any], Any] | None = None
        #: Failure memory, ``node id value -> (consecutive strikes, suspected
        #: until)`` on the transport clock; keyed by the bare int because it
        #: is consulted per RPC and ``NodeID.__hash__`` runs in Python.
        #: Allocated by the first strike: a node that never watched a peer
        #: die carries no map.
        self._suspects: dict[int, tuple[int, float]] | None = None
        #: ``bucket index -> transport-clock time`` of this node's last
        #: ``lookup_node`` / ``lookup_value`` whose target falls in that
        #: bucket: a lookup refreshes the bucket it walks, so
        #: :meth:`refresh_buckets` need not (Kademlia §2.3).
        self.bucket_lookup_at: dict[int, float] = {}
        # Server-side RPC counters (how much load this node sustains).
        self.rpcs_served: dict[str, int] = {
            "ping": 0,
            "store": 0,
            "append": 0,
            "find_node": 0,
            "find_value": 0,
        }
        self.transport.register(self.address, self._dispatch)

    # ------------------------------------------------------------------ #
    # identity / representation
    # ------------------------------------------------------------------ #

    @property
    def contact(self) -> Contact:
        return Contact(node_id=self.node_id, address=self.address)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"KademliaNode(id={self.node_id.hex()[:8]}…, addr={self.address})"

    # ------------------------------------------------------------------ #
    # server side: RPC dispatch
    # ------------------------------------------------------------------ #

    def dispatch_nowait(self, sender_address: str, request: RPCRequest) -> Any | None:
        """:meth:`_dispatch` for a thread that must never block (the UDP
        receiver).  ``None`` -- nothing served, nothing counted -- when
        admitting the sender takes the evict-probe, the one step of serving a
        request that waits on the network; the caller then serves the request
        through :meth:`_dispatch` where blocking is allowed."""
        return self._dispatch(sender_address, request, may_probe=False)

    def _dispatch(
        self, sender_address: str, request: RPCRequest, may_probe: bool = True
    ) -> Any:
        """Entry point registered with the network."""
        if not isinstance(request, RPCRequest):
            raise TypeError(f"unknown RPC {type(request).__name__}")
        # Every message refreshes the sender's entry in the routing table.  A
        # PING must not trigger the ping-before-evict policy while being
        # served: with saturated tables (1k-node clusters) the synchronous
        # evict-pings would otherwise cascade node-to-node without bound.
        sender = Contact(node_id=request.sender_id, address=request.sender_address)
        suspects = self._suspects
        if suspects and request.sender_id.value in suspects:
            # First-hand evidence of life lifts a suspicion at once.
            suspects.pop(request.sender_id.value, None)
        if isinstance(request, PingRequest):
            if self._admit_contact(request.sender_id):
                self.routing_table.record_contact(sender)
            self.rpcs_served["ping"] += 1
            response: Any = PingResponse(responder_id=self.node_id)
        else:
            if not self._note_contact(sender, may_probe):
                return None
            if isinstance(request, StoreRequest):
                response = self._handle_store(request)
            elif isinstance(request, AppendRequest):
                response = self._handle_append(request)
            elif isinstance(request, FindValueRequest):
                response = self._handle_find_value(request)
            elif isinstance(request, FindNodeRequest):
                response = self._handle_find_node(request)
            else:
                raise TypeError(f"unknown RPC {type(request).__name__}")
        if self.rpc_hook is not None:
            response = self.rpc_hook(request, response)
        return response

    def _verify_signed(self, value: SignedValue, context: str) -> None:
        """Verify *value* against the certification service, counting the
        outcome in the ``likir.*`` enforcement counters."""
        if self.certification is None:
            PERF.count("likir.rejected")
            raise LikirAuthError(
                f"cannot verify {context}: node has no certification service configured"
            )
        try:
            value.verify(self.certification)
        except LikirAuthError:
            PERF.count("likir.rejected")
            raise
        PERF.count("likir.verified")

    def _handle_store(self, request: StoreRequest) -> StoreResponse:
        self.rpcs_served["store"] += 1
        value = request.value
        if self.config.verify_credentials:
            if isinstance(value, SignedValue):
                self._verify_signed(value, "STORE")
            elif self.config.require_signed_writes and self.certification is not None:
                if not self.storage.merge_compatible(request.key, value):
                    PERF.count("likir.rejected")
                    raise LikirAuthError(
                        "unsigned STORE may only merge into counter state, "
                        f"not replace the block at {request.key.hex()[:12]}…"
                    )
        self.storage.put(request.key, value, now=self.transport.clock.now, remote=True)
        return StoreResponse(responder_id=self.node_id, stored=True)

    def _handle_append(self, request: AppendRequest) -> AppendResponse:
        self.rpcs_served["append"] += 1
        if (
            self.config.verify_credentials
            and self.config.require_signed_writes
            and self.certification is not None
            and not self.certification.is_certified_node_id(request.sender_id)
        ):
            PERF.count("likir.rejected")
            raise LikirAuthError(
                f"APPEND from uncertified node id {request.sender_id.hex()[:12]}…"
            )
        size = self.storage.append(
            key=request.key,
            owner=request.owner,
            block_type=BlockType(request.block_type),
            increments=request.increments,
            now=self.transport.clock.now,
            increments_if_new=request.increments_if_new,
        )
        return AppendResponse(responder_id=self.node_id, applied=True, block_size=size)

    def _handle_find_node(self, request: FindNodeRequest) -> FindNodeResponse:
        self.rpcs_served["find_node"] += 1
        closest = self.routing_table.closest_contacts(request.target, request.count)
        return FindNodeResponse(
            responder_id=self.node_id,
            contacts=tuple(closest),
        )

    def _handle_find_value(self, request: FindValueRequest) -> FindValueResponse:
        self.rpcs_served["find_value"] += 1
        value = self.storage.get(request.key, top_n=request.top_n)
        if value is not None:
            return FindValueResponse(responder_id=self.node_id, found=True, value=value)
        closest = self.routing_table.closest_contacts(request.key, request.count)
        return FindValueResponse(
            responder_id=self.node_id,
            found=False,
            contacts=tuple(closest),
        )

    # ------------------------------------------------------------------ #
    # client side: raw RPCs
    # ------------------------------------------------------------------ #

    def _admit_contact(self, node_id: NodeID) -> bool:
        """Certified-id admission control (Sybil defense).

        With ``certified_contacts`` and a certification service, only node
        ids the service actually issued may enter routing state; every
        refusal is counted in ``likir.sybil_rejected``.
        """
        if not self.config.certified_contacts or self.certification is None:
            return True
        if self.certification.is_certified_node_id(node_id):
            return True
        PERF.count("likir.sybil_rejected")
        return False

    def _note_contact(self, contact: Contact, may_probe: bool = True) -> bool:
        """Insert the sender of a request, applying the ping-before-evict
        policy when the target bucket is full.  False, with nobody pinged,
        when the policy applies and *may_probe* is off."""
        if contact.node_id == self.node_id:
            return True
        if not self._admit_contact(contact.node_id):
            return True
        inserted = self.routing_table.record_contact(contact)
        if inserted:
            return True
        if not may_probe:
            return False
        stale = self.routing_table.least_recently_seen(contact.node_id)
        if stale is not None and not self.ping(stale):
            self.routing_table.evict(stale.node_id)
            self.routing_table.record_contact(contact)
        return True

    def _call(self, contact: Contact, request: RPCRequest) -> Any | None:
        """Issue one RPC; returns None on failure.

        Only a spent retry budget or a vanished address is evidence of death
        and strikes the contact.  One lost datagram evicts it, as ever, but
        leaves no memory; an oversize frame says nothing about the peer and
        leaves the routing table alone.
        """
        try:
            response = self.transport.send(self.address, contact.address, request)
        except (RequestTimeout, NodeUnreachable):
            self._strike(contact.node_id)
            return None
        except DatagramTooLarge:
            return None
        except TransportError:
            self.routing_table.evict(contact.node_id)
            return None
        self.routing_table.record_contact(contact)
        suspects = self._suspects
        if suspects and contact.node_id.value in suspects:
            suspects.pop(contact.node_id.value, None)
        return response

    # ------------------------------------------------------------------ #
    # failure memory
    # ------------------------------------------------------------------ #

    def _strike(self, node_id: NodeID) -> None:
        """Evict *node_id* and suspect it for a window that doubles with every
        consecutive strike.

        Over UDP, handler threads clear suspicions while the client thread
        strikes, so the map is only ever walked through a ``list`` copy.
        """
        self.routing_table.evict(node_id)
        suspects = self._suspects
        if suspects is None:
            suspects = self._suspects = {}
        key = node_id.value
        now = self.transport.clock.now
        strikes = suspects.get(key, (0, 0.0))[0] + 1
        while key not in suspects and len(suspects) >= MAX_SUSPECTS:
            soonest = min(list(suspects.items()), key=lambda item: item[1][1])[0]
            suspects.pop(soonest, None)
        window = min(SUSPECT_BASE_MS * 2.0 ** (strikes - 1), SUSPECT_CAP_MS)
        suspects[key] = (strikes, now + window)
        PERF.count("dht.suspect_strikes")

    def is_suspect(self, node_id: NodeID) -> bool:
        """True while *node_id*'s suspicion window runs: hearsay about it is
        to be ignored (each such skip is counted in ``dht.suspect_skips``)."""
        suspects = self._suspects
        if suspects is None:
            return False
        entry = suspects.get(node_id.value)
        if entry is None or entry[1] <= self.transport.clock.now:
            return False
        PERF.count("dht.suspect_skips")
        return True

    def unsuspected(self, contacts: Sequence[Contact]) -> Sequence[Contact]:
        """*contacts* without the current suspects (as given when there are
        none, which is the common case and costs one test)."""
        suspects = self._suspects
        if not suspects:
            return contacts
        return [
            c
            for c in contacts
            if c.node_id.value not in suspects or not self.is_suspect(c.node_id)
        ]

    @property
    def suspect_count(self) -> int:
        """How many peers are suspected right now."""
        now = self.transport.clock.now
        return sum(1 for _, _, until in self.export_suspects() if until > now)

    def export_suspects(self) -> list[tuple[NodeID, int, float]]:
        """The failure memory as ``(node id, strikes, suspected until)`` rows,
        oldest first (what a cluster snapshot stores)."""
        return [
            (NodeID(value), strikes, until)
            for value, (strikes, until) in list((self._suspects or {}).items())
        ]

    def restore_suspects(self, rows: list[tuple[NodeID, int, float]]) -> None:
        """Inverse of :meth:`export_suspects`."""
        self._suspects = {
            node_id.value: (strikes, until) for node_id, strikes, until in rows
        } or None

    def ping(self, contact: Contact) -> bool:
        """PING *contact*; True if it answered."""
        request = PingRequest(sender_id=self.node_id, sender_address=self.address)
        response = self._call(contact, request)
        return isinstance(response, PingResponse) and response.alive

    # ------------------------------------------------------------------ #
    # client side: iterative lookups
    # ------------------------------------------------------------------ #

    def query(
        self, contact: Contact, target: NodeID, find_value: bool, top_n: int | None
    ) -> tuple[Sequence[Contact], Any | None] | None:
        """LookupTransport implementation used by :func:`iterative_lookup`."""
        if find_value:
            request: RPCRequest = FindValueRequest(
                sender_id=self.node_id,
                sender_address=self.address,
                key=target,
                count=self.config.k,
                top_n=top_n,
            )
        else:
            request = FindNodeRequest(
                sender_id=self.node_id,
                sender_address=self.address,
                target=target,
                count=self.config.k,
            )
        response = self._call(contact, request)
        if response is None:
            return None
        if isinstance(response, FindValueResponse):
            if response.found:
                return ([], response.value)
            return (self._admitted(response.contacts), None)
        if isinstance(response, FindNodeResponse):
            return (self._admitted(response.contacts), None)
        return None

    def _admitted(self, contacts: Sequence[Contact]) -> Sequence[Contact]:
        """Filter uncertified contacts out of a lookup response (a poisoned
        peer steering the lookup toward Sybil ids must not succeed)."""
        if not self.config.certified_contacts or self.certification is None:
            return contacts
        return [c for c in contacts if self._admit_contact(c.node_id)]

    def note_lookup(self, target: NodeID) -> None:
        """Record that a lookup of this node is walking the bucket *target*
        falls in."""
        distance = self.node_id.value ^ target.value
        if distance:
            self.bucket_lookup_at[distance.bit_length() - 1] = self.transport.clock.now

    def lookup_node(self, target: NodeID) -> LookupOutcome:
        """Iterative FIND_NODE for *target*."""
        self.note_lookup(target)
        seeds = self.routing_table.closest_contacts(target, self.config.alpha)
        return iterative_lookup(
            transport=self,
            target=target,
            seeds=seeds,
            k=self.config.k,
            alpha=self.config.alpha,
            find_value=False,
        )

    def lookup_value(self, key: NodeID, top_n: int | None = None) -> LookupOutcome:
        """Iterative FIND_VALUE for *key*.

        Checks the local storage first (a node responsible for a key answers
        its own query without touching the network).
        """
        local = self.storage.get(key, top_n=top_n)
        if local is not None:
            outcome = LookupOutcome(target=key)
            outcome.value = local
            outcome.found_value = True
            return outcome
        self.note_lookup(key)
        seeds = self.routing_table.closest_contacts(key, self.config.alpha)
        return iterative_lookup(
            transport=self,
            target=key,
            seeds=seeds,
            k=self.config.k,
            alpha=self.config.alpha,
            find_value=True,
            top_n=top_n,
        )

    # ------------------------------------------------------------------ #
    # client side: application operations
    # ------------------------------------------------------------------ #

    def _write_at(
        self, targets: list[Contact], request: RPCRequest, apply_locally: Callable[[], Any]
    ) -> int:
        """Send the write *request* to *targets* -- applying it locally where
        a target is this node -- and return how many replicas accepted it.

        A replica accepts only with the response its request expects: a
        ``stored`` STORE or an ``applied`` APPEND answer.
        """
        store = isinstance(request, StoreRequest)
        accepted = 0
        for contact in targets:
            if contact.node_id == self.node_id:
                apply_locally()
                accepted += 1
                continue
            response = self._call(contact, request)
            if store:
                if isinstance(response, StoreResponse) and response.stored:
                    accepted += 1
            elif isinstance(response, AppendResponse) and response.applied:
                accepted += 1
        return accepted

    def _replicate(self, key: NodeID, write_at: Callable[[list[Contact]], int]) -> LookupOutcome:
        """Look *key* up and walk the closest candidates in distance order,
        stepping over current suspects, until ``replicate`` replicas accepted
        the write.

        The lookup's closest list can contain contacts that were reported by
        peers but never answered themselves (they may have crashed since);
        writing blindly to the first ``replicate`` entries would, on a
        churning overlay, silently decay replication until data dies with its
        last holder.
        """
        outcome = self.lookup_node(key)
        accepted = 0
        for contact in self.unsuspected(outcome.closest):
            if accepted >= self.config.replicate:
                break
            accepted += write_at([contact])
        if not accepted:
            # Last resort: keep the write locally so it is not lost.  This
            # stash is deliberately NOT counted in accepted_replicas -- no
            # replica accepted anything, and callers (e.g. the maintenance
            # hand-off) must not mistake it for durable replication.
            write_at([self.contact])
        outcome.accepted_replicas = accepted
        return outcome

    def store_at(
        self,
        targets: list[Contact],
        key: NodeID,
        value: Any,
        identity: Identity | None = None,
    ) -> int:
        """Send the STORE of *value* directly to *targets* (no lookup).

        Returns the number of replicas that accepted the value.  Used by the
        normal :meth:`store` path after its lookup, and by the batched lookup
        engine when the replica set is already known from the route cache.
        """
        if identity is not None:
            value = SignedValue.create(identity, key, value)
        request = StoreRequest(
            sender_id=self.node_id,
            sender_address=self.address,
            key=key,
            value=value,
        )
        return self._write_at(
            targets, request, lambda: self.storage.put(key, value, now=self.transport.clock.now)
        )

    def store(self, key: NodeID, value: Any, identity: Identity | None = None) -> LookupOutcome:
        """PUT *value* under *key* on the ``replicate`` closest *responding*
        nodes (see :meth:`_replicate`)."""
        if identity is not None:
            value = SignedValue.create(identity, key, value)
        return self._replicate(key, lambda targets: self.store_at(targets, key, value))

    def append_at(
        self,
        targets: list[Contact],
        key: NodeID,
        owner: str,
        block_type: BlockType,
        increments: dict[str, int],
        increments_if_new: dict[str, int] | None = None,
    ) -> int:
        """Send the APPEND directly to *targets* (no lookup).

        Returns the number of replicas that applied the increments; the
        counterpart of :meth:`store_at` for commutative counter updates.
        """
        request = AppendRequest(
            sender_id=self.node_id,
            sender_address=self.address,
            key=key,
            owner=owner,
            block_type=block_type.value,
            increments=dict(increments),
            increments_if_new=dict(increments_if_new) if increments_if_new else None,
        )
        return self._write_at(
            targets,
            request,
            lambda: self.storage.append(
                key,
                owner,
                block_type,
                increments,
                now=self.transport.clock.now,
                increments_if_new=increments_if_new,
            ),
        )

    def append(
        self,
        key: NodeID,
        owner: str,
        block_type: BlockType,
        increments: dict[str, int],
        increments_if_new: dict[str, int] | None = None,
    ) -> LookupOutcome:
        """Apply counter *increments* to the block at *key* on its replicas,
        walked like :meth:`store`'s."""
        return self._replicate(
            key,
            lambda targets: self.append_at(
                targets, key, owner, block_type, increments, increments_if_new=increments_if_new
            ),
        )

    def unwrap_value(self, value: Any) -> Any:
        """Verify and strip the Likir credential of a retrieved value.

        With ``verify_credentials`` the GET path enforces exactly like the
        STORE path: a missing certification service raises instead of
        silently skipping verification (a misconfigured node must be loud,
        not quietly trusting), and every rejection is counted.
        """
        if isinstance(value, SignedValue):
            if self.config.verify_credentials:
                self._verify_signed(value, "retrieved value")
            value = value.value
        return value

    def retrieve(self, key: NodeID, top_n: int | None = None) -> tuple[Any | None, LookupOutcome]:
        """GET the value stored under *key* (or None)."""
        outcome = self.lookup_value(key, top_n=top_n)
        return self.unwrap_value(outcome.value), outcome

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def join(self, bootstrap: Contact | None) -> None:
        """Join the overlay through *bootstrap* (None for the first node)."""
        if bootstrap is not None and bootstrap.node_id != self.node_id:
            self.routing_table.record_contact(bootstrap)
            self.lookup_node(self.node_id)
        self.joined = True

    def refresh_buckets(
        self, rng: random.Random | None = None, since: float = float("-inf")
    ) -> RefreshPass:
        """Refresh every non-empty bucket that no lookup of this node walked
        after *since* (transport-clock time of the previous refresh); returns
        the pass as a :class:`RefreshPass` -- buckets, not lookups.

        A bucket some lookup touched since then is fresh already (Kademlia
        §2.3); callers pass the clock *after* their previous pass, so the
        refresh lookups themselves never make the next pass skip a bucket.

        The neighbourhood -- every bucket below the one holding the k-th
        closest contact -- is refreshed by one lookup of the node's own id,
        which returns all of it (Kademlia §2.3's join lookup).  A full bucket
        farther out first PINGs its least-recently-seen contact, the one
        likeliest to be dead: if it answers, the bucket has nothing to evict
        and no room for a joiner (§2.2), so it counts as refreshed without a
        walk; if not, the failed call evicts it and the bucket is walked.
        Every other far bucket gets a lookup of a random id in its range.  A
        table with fewer than k contacts has no neighbourhood (and no full
        bucket).
        """
        rng = rng or random.Random(0)
        k = self.config.k
        utilisation = self.routing_table.bucket_utilisation()
        radius = -1
        held = 0
        for index, size in utilisation.items():
            held += size
            if held >= k:
                radius = index
                break
        refreshed = pinged = 0
        looked_up_self = False
        for index, size in utilisation.items():
            if self.bucket_lookup_at.get(index, float("-inf")) > since:
                PERF.count("maint.refresh_skips")
                continue
            refreshed += 1
            if index < radius:
                if not looked_up_self:
                    self.lookup_node(self.node_id)
                    looked_up_self = True
                continue
            if size >= k:
                oldest = self.routing_table.bucket(index).least_recently_seen()
                if oldest is not None and self.ping(oldest):
                    pinged += 1
                    PERF.count("maint.refresh_pings")
                    continue
            low = 1 << index
            high = (1 << (index + 1)) - 1
            distance = rng.randint(low, high)
            target = NodeID(self.node_id.value ^ distance)
            self.lookup_node(target)
        return RefreshPass(buckets=len(utilisation), refreshed=refreshed, pinged=pinged)

    def leave(self, republish: bool = False) -> dict[NodeID, Any]:
        """Leave the overlay; optionally hand back stored items for
        republication by the caller."""
        items = self.storage.items_snapshot() if republish else {}
        self.transport.unregister(self.address)
        self.joined = False
        return items
