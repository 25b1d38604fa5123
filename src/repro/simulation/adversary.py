"""Deterministic adversarial fault injection for the Likir identity layer.

The churn process (:mod:`repro.simulation.churn`) injects *crash* faults;
this module injects *Byzantine* ones.  An :class:`AdversaryProcess` drives a
scripted attack campaign against a running overlay from the shared
:class:`~repro.simulation.event_queue.EventQueue`, with every event drawn
up front from a seeded RNG (:meth:`AdversaryProcess.schedule_trace`), so a
verification-on and a verification-off run face the byte-identical attack
trace and their outcome delta measures *enforcement*, nothing else.

Four attack behaviors are shipped:

* **Sybil join floods** -- :class:`SybilNode` peers with *self-chosen* node
  ids crowding a victim key's XOR region (``victim ^ 1, victim ^ 2, ...``),
  exactly the id-targeting Likir's certified identities make impossible.
  Nodes running with ``certified_contacts`` refuse them routing admission
  (counted in ``likir.sybil_rejected``).
* **Eclipse attempts** on the victim key's k-closest ring: sybils answer
  FIND_NODE with their own ring and FIND_VALUE with forged values, blackhole
  STOREs/APPENDs, and *compromised honest peers* (via the
  :attr:`~repro.dht.node.KademliaNode.rpc_hook` seam) steer victim-key
  lookups toward the sybil ring.  :meth:`AdversaryProcess.eclipse_progress`
  gauges how much of the honest routing view the adversary captured.
* **Forged STORE/APPEND** of counter blocks in four flavours: a bad
  credential under a registered publisher name, a structurally valid
  credential from an unknown publisher, a genuine credential replayed over a
  different key, and an unsigned wholesale overwrite (the one
  ``require_signed_writes`` exists for -- merge-on-store only protects
  counter-vs-counter writes of the same owner).
* **Stale-republish storms** -- the block state captured at attack start is
  replayed later under a forged "maintenance" credential; accepted, it rolls
  counters back below their floors (a rollback attack, distinct from the
  corrupt-content forgeries: the payload itself is plausible data).

The process never mutates the honest overlay directly -- everything arrives
through ordinary RPCs, so whatever the enforcement points reject simply does
not happen.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.dht.likir import Identity, LikirAuthError, SignedValue
from repro.dht.messages import (
    AppendRequest,
    AppendResponse,
    ContactInfo,
    FindNodeRequest,
    FindNodeResponse,
    FindValueRequest,
    FindValueResponse,
    RPCRequest,
    StoreRequest,
    StoreResponse,
)
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.node_id import NodeID
from repro.net.base import TransportError
from repro.perf import PERF
from repro.simulation.event_queue import EventQueue

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.dht
    from repro.dht.bootstrap import Overlay

__all__ = [
    "FORGE_KINDS",
    "SYBIL_INTERVAL_MS",
    "FORGED_PUBLISHER",
    "AttackTarget",
    "AdversaryConfig",
    "AdversaryProcess",
    "SybilNode",
]

#: The forged-write flavours the adversary cycles through.
FORGE_KINDS = (
    "bad-credential",
    "unknown-publisher",
    "replayed-key",
    "unsigned-overwrite",
)
#: Virtual ms between successive sybil joins.
SYBIL_INTERVAL_MS = 250.0
#: Registered user name the forger impersonates on bad credentials.
FORGED_PUBLISHER = "peer-000000"


@dataclass(frozen=True, slots=True)
class AttackTarget:
    """One victim block.

    ``payload`` is the counter payload as captured when the attack was
    scheduled -- the adversary's stale snapshot (replayed by the republish
    storm) and the source of the owner/type metadata forged APPENDs need.
    """

    key: NodeID
    payload: dict[str, Any]


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    """Parameters of the attack campaign (rates in events per virtual second)."""

    #: Sybil nodes joined at :data:`SYBIL_INTERVAL_MS` spacing, ids crowding
    #: the primary victim key.
    sybil_count: int = 0
    #: When set, sybils and compromised peers actively lie in RPC responses
    #: (forged FIND_VALUE payloads, sybil-ring FIND_NODE steering); otherwise
    #: sybils are passive id-squatters.
    eclipse: bool = True
    #: Fraction of honest nodes whose RPC responses the adversary rewrites.
    compromised_fraction: float = 0.0
    #: Poisson rate of forged STOREs (drawn from :data:`FORGE_KINDS`).
    forge_rate: float = 0.0
    #: Poisson rate of forged APPENDs from an uncertified sender id.
    append_forge_rate: float = 0.0
    #: Poisson rate of stale-snapshot republish events (rollback attack).
    stale_republish_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sybil_count < 0:
            raise ValueError("sybil_count must be >= 0")
        if not (0.0 <= self.compromised_fraction <= 1.0):
            raise ValueError("compromised_fraction must be in [0, 1]")
        for rate in (self.forge_rate, self.append_forge_rate, self.stale_republish_rate):
            if rate < 0:
                raise ValueError("attack rates must be >= 0")


class SybilNode(KademliaNode):
    """A malicious participant with a self-chosen node id.

    Fully protocol-conformant on the wire, hostile in behavior: STOREs and
    APPENDs are acknowledged and dropped (blackholing), FIND_NODE advertises
    only the sybil ring, and -- in eclipse mode -- FIND_VALUE answers with a
    forged :class:`~repro.dht.likir.SignedValue` for whatever key was asked.
    """

    def __init__(
        self,
        node_id: NodeID,
        network: Any,
        config: NodeConfig,
        address: str,
        adversary: "AdversaryProcess",
    ) -> None:
        super().__init__(
            node_id, network, config=config, address=address, certification=None
        )
        self._adversary = adversary

    def _handle_store(self, request: StoreRequest) -> StoreResponse:
        self.rpcs_served["store"] += 1
        self._adversary.blackholed_stores += 1
        return StoreResponse(responder_id=self.node_id, stored=True)

    def _handle_append(self, request: AppendRequest) -> AppendResponse:
        self.rpcs_served["append"] += 1
        self._adversary.blackholed_appends += 1
        return AppendResponse(responder_id=self.node_id, applied=True, block_size=0)

    def _handle_find_value(self, request: FindValueRequest) -> FindValueResponse:
        self.rpcs_served["find_value"] += 1
        adversary = self._adversary
        if adversary.config.eclipse:
            adversary.lies_served += 1
            return FindValueResponse(
                responder_id=self.node_id,
                found=True,
                value=adversary.forged_value_for(request.key),
            )
        return FindValueResponse(
            responder_id=self.node_id, found=False, contacts=self._ring_wire()
        )

    def _handle_find_node(self, request: FindNodeRequest) -> FindNodeResponse:
        self.rpcs_served["find_node"] += 1
        return FindNodeResponse(responder_id=self.node_id, contacts=self._ring_wire())

    def _ring_wire(self) -> tuple[ContactInfo, ...]:
        return tuple(
            ContactInfo(node.node_id, node.address)
            for node in self._adversary.sybils
            if node.node_id != self.node_id
        )


@dataclass(slots=True)
class _Outcomes:
    """Sent/accepted/rejected bookkeeping of one attack channel."""

    sent: int = 0
    accepted: int = 0
    rejected: int = 0

    def snapshot(self) -> dict[str, int]:
        return {"sent": self.sent, "accepted": self.accepted, "rejected": self.rejected}


class AdversaryProcess:
    """Drives a scripted attack campaign against an overlay.

    Mirrors :class:`~repro.simulation.churn.ChurnProcess`: construct it over
    the overlay and the shared event queue, then :meth:`schedule_trace` pins
    the whole campaign (every sybil join, forgery and republish event, with
    its target and flavour) to absolute virtual times drawn from the config
    seed.  The same seed therefore produces the identical attack no matter
    what the defenders do in between -- the property the verification-on /
    verification-off A/B benchmark rests on.
    """

    def __init__(
        self,
        overlay: "Overlay",
        queue: EventQueue,
        config: AdversaryConfig,
        targets: list[AttackTarget],
    ) -> None:
        if not targets:
            raise ValueError("the adversary needs at least one attack target")
        self.overlay = overlay
        self.queue = queue
        self.config = config
        self.targets = list(targets)
        #: Primary victim: sybil ids crowd this key's region and the eclipse
        #: gauge measures the adversary's share of its k-closest ring.
        self.victim = targets[0].key
        self._rng = random.Random(config.seed)
        self.sybils: list[SybilNode] = []
        self._sybil_ids: set[NodeID] = set()
        self.compromised: list[KademliaNode] = []
        self._target_keys = {target.key for target in self.targets}
        #: A genuine SignedValue captured from honest storage at trace time,
        #: replayed over foreign keys by the "replayed-key" forgery.
        self._captured_signed: SignedValue | None = None
        #: The node all forged traffic originates from (self-chosen id, never
        #: joined -- it speaks raw RPCs).
        self._attacker: KademliaNode | None = None
        # -- counters (all deterministic under a fixed seed) ---------------- #
        self.sybil_joins = 0
        self.lies_served = 0
        self.blackholed_stores = 0
        self.blackholed_appends = 0
        self.forged_stores: dict[str, _Outcomes] = {
            kind: _Outcomes() for kind in FORGE_KINDS
        }
        self.forged_appends = _Outcomes()
        self.stale_republishes = _Outcomes()

    # -- scheduling ------------------------------------------------------- #

    def schedule_trace(self, horizon_ms: float) -> int:
        """Pre-schedule the whole campaign over the next *horizon_ms*.

        Compromises peers immediately, then pins every sybil join, forged
        write and stale republish to an absolute virtual time.  Returns the
        number of scheduled events.
        """
        start = self.queue.clock.now
        self._capture_signed_value()
        self._compromise_peers()
        scheduled = 0
        for index in range(self.config.sybil_count):
            at = start + (index + 1) * SYBIL_INTERVAL_MS
            if at > start + horizon_ms:
                break
            self.queue.schedule_at(
                at,
                lambda i=index: self._do_sybil_join(i),
                label=f"attack-sybil:{index}",
            )
            scheduled += 1
        scheduled += self._schedule_poisson(
            start, horizon_ms, self.config.forge_rate, self._schedule_forgery
        )
        scheduled += self._schedule_poisson(
            start, horizon_ms, self.config.append_forge_rate, self._schedule_append_forgery
        )
        scheduled += self._schedule_poisson(
            start, horizon_ms, self.config.stale_republish_rate, self._schedule_stale
        )
        return scheduled

    def _schedule_poisson(self, start, horizon_ms, rate, plant) -> int:
        if rate <= 0:
            return 0
        scheduled = 0
        at = start
        while True:
            at += 1000.0 * self._rng.expovariate(rate)
            if at > start + horizon_ms:
                return scheduled
            plant(at)
            scheduled += 1

    def _schedule_forgery(self, at: float) -> None:
        target = self.targets[self._rng.randrange(len(self.targets))]
        kind = FORGE_KINDS[self._rng.randrange(len(FORGE_KINDS))]
        self.queue.schedule_at(
            at,
            lambda t=target, k=kind: self._do_forged_store(t, k),
            label=f"attack-forge:{kind}:{target.key.hex()[:12]}",
        )

    def _schedule_append_forgery(self, at: float) -> None:
        target = self.targets[self._rng.randrange(len(self.targets))]
        self.queue.schedule_at(
            at,
            lambda t=target: self._do_forged_append(t),
            label=f"attack-append:{target.key.hex()[:12]}",
        )

    def _schedule_stale(self, at: float) -> None:
        target = self.targets[self._rng.randrange(len(self.targets))]
        self.queue.schedule_at(
            at,
            lambda t=target: self._do_stale_republish(t),
            label=f"attack-stale:{target.key.hex()[:12]}",
        )

    # -- preparation ------------------------------------------------------ #

    def _capture_signed_value(self) -> None:
        for node in self.overlay.live_nodes():
            for value in node.storage.items_snapshot().values():
                if isinstance(value, SignedValue):
                    self._captured_signed = value
                    return

    def _compromise_peers(self) -> None:
        fraction = self.config.compromised_fraction
        if fraction <= 0:
            return
        honest = self.overlay.live_nodes()
        count = max(1, int(len(honest) * fraction))
        for node in self._rng.sample(honest, min(count, len(honest))):
            self.compromise(node)

    def compromise(self, node: KademliaNode) -> None:
        """Turn an honest peer malicious via its :attr:`rpc_hook` seam.

        The compromised peer stays a normal replica except on the victim
        keys, where it forges FIND_VALUE payloads and steers FIND_NODE
        toward the sybil ring (the eclipse attempt's inside help).
        """
        self.compromised.append(node)
        node.rpc_hook = lambda request, response: self._lie(request, response)

    def _lie(self, request: RPCRequest, response: Any) -> Any:
        if not self.config.eclipse:
            return response
        if isinstance(request, FindNodeRequest) and request.target in self._target_keys:
            if self.sybils:
                self.lies_served += 1
                return FindNodeResponse(
                    responder_id=response.responder_id,
                    contacts=tuple(
                        ContactInfo(s.node_id, s.address) for s in self.sybils
                    ),
                )
        if isinstance(request, FindValueRequest) and request.key in self._target_keys:
            self.lies_served += 1
            return FindValueResponse(
                responder_id=response.responder_id,
                found=True,
                value=self.forged_value_for(request.key),
            )
        return response

    # -- attack actions --------------------------------------------------- #

    def _ensure_attacker(self) -> KademliaNode:
        if self._attacker is None:
            node_config = self.overlay.node_config
            self._attacker = KademliaNode(
                node_id=NodeID.hash_of(f"attacker-{self.config.seed}"),
                network=self.overlay.network,
                config=NodeConfig(
                    k=node_config.k,
                    alpha=node_config.alpha,
                    replicate=node_config.replicate,
                    verify_credentials=False,
                ),
                address=f"attacker-{self.config.seed}",
            )
        return self._attacker

    def _closest_honest(self, key: NodeID, count: int) -> list[KademliaNode]:
        """The *count* live honest nodes closest to *key* (the adversary is
        omniscient: it aims forged writes exactly at the responsible ring)."""
        live = [
            node
            for node in self.overlay.live_nodes()
            if node.node_id not in self._sybil_ids
        ]
        live.sort(key=lambda node: node.node_id.value ^ key.value)
        return live[:count]

    def _do_sybil_join(self, index: int) -> None:
        sybil_id = NodeID(self.victim.value ^ (index + 1))
        node_config = self.overlay.node_config
        sybil = SybilNode(
            sybil_id,
            network=self.overlay.network,
            config=NodeConfig(
                k=node_config.k,
                alpha=node_config.alpha,
                replicate=node_config.replicate,
                verify_credentials=False,
            ),
            address=f"sybil-{self.config.seed}-{index:04d}",
            adversary=self,
        )
        self.sybils.append(sybil)
        self._sybil_ids.add(sybil_id)
        bootstrap = self._closest_honest(sybil_id, 1)
        if bootstrap:
            try:
                sybil.join(bootstrap[0].contact)
                # Advertise toward the victim region: every lookup hop
                # records the sybil as sender (unless admission rejects it).
                sybil.lookup_node(self.victim)
            except TransportError:
                pass
        self.sybil_joins += 1
        PERF.gauge("attack.eclipse_progress", self.eclipse_progress())

    def _corrupt_payload(self) -> dict[str, Any]:
        seed = self.config.seed
        return {
            "owner": f"mallory-{seed}",
            "type": "1",
            "entries": {f"attack-forged-{seed}": 1},
        }

    def _forged_credential(self, domain: str, key: NodeID) -> bytes:
        return hashlib.sha1(
            f"{domain}|{self.config.seed}|{key.hex()}".encode()
        ).digest()

    def forged_value_for(self, key: NodeID) -> SignedValue:
        """The forged block sybils and compromised peers serve for *key*:
        a corrupt payload under a registered publisher's name with a
        credential the forger cannot actually mint."""
        return SignedValue(
            publisher=FORGED_PUBLISHER,
            key_hex=key.hex(),
            value=self._corrupt_payload(),
            credential=self._forged_credential("lie", key),
        )

    def _forged_store_value(self, target: AttackTarget, kind: str) -> Any:
        key = target.key
        if kind == "bad-credential":
            return self.forged_value_for(key)
        if kind == "unknown-publisher":
            user = f"mallory-{self.config.seed}"
            identity = Identity(
                user=user,
                node_id=NodeID.hash_of(user),
                secret=self._forged_credential("secret", key),
            )
            return SignedValue.create(identity, key, self._corrupt_payload())
        if kind == "replayed-key":
            genuine = self._captured_signed
            if genuine is not None and genuine.key_hex != key.hex():
                # A credential stolen off the wire, replayed over a foreign
                # key: publisher and value are genuine, the binding is not.
                return SignedValue(
                    publisher=genuine.publisher,
                    key_hex=key.hex(),
                    value=genuine.value,
                    credential=genuine.credential,
                )
            return self.forged_value_for(key)
        # "unsigned-overwrite": a bare payload under a foreign owner, which
        # merge-on-store replaces wholesale instead of merging.
        return self._corrupt_payload()

    def _deliver(self, request: RPCRequest, key: NodeID, outcomes: _Outcomes) -> None:
        outcomes.sent += 1
        attacker = self._ensure_attacker()
        replicate = self.overlay.node_config.replicate
        for node in self._closest_honest(key, replicate):
            try:
                response = attacker.transport.send(
                    attacker.address, node.address, request
                )
            except LikirAuthError:
                outcomes.rejected += 1
            except (TransportError, ValueError):
                continue
            else:
                accepted = (
                    isinstance(response, StoreResponse)
                    and response.stored
                    or isinstance(response, AppendResponse)
                    and response.applied
                )
                if accepted:
                    outcomes.accepted += 1

    def _do_forged_store(self, target: AttackTarget, kind: str) -> None:
        attacker = self._ensure_attacker()
        request = StoreRequest(
            sender_id=attacker.node_id,
            sender_address=attacker.address,
            key=target.key,
            value=self._forged_store_value(target, kind),
        )
        self._deliver(request, target.key, self.forged_stores[kind])

    def _do_forged_append(self, target: AttackTarget) -> None:
        attacker = self._ensure_attacker()
        payload = target.payload
        request = AppendRequest(
            sender_id=attacker.node_id,
            sender_address=attacker.address,
            key=target.key,
            owner=payload["owner"],
            block_type=payload["type"],
            increments={f"attack-append-{self.config.seed}": 1000},
        )
        self._deliver(request, target.key, self.forged_appends)

    def _do_stale_republish(self, target: AttackTarget) -> None:
        attacker = self._ensure_attacker()
        stale = {**target.payload, "entries": dict(target.payload["entries"])}
        value = SignedValue(
            publisher=FORGED_PUBLISHER,
            key_hex=target.key.hex(),
            value=stale,
            credential=self._forged_credential("stale", target.key),
        )
        request = StoreRequest(
            sender_id=attacker.node_id,
            sender_address=attacker.address,
            key=target.key,
            value=value,
        )
        self._deliver(request, target.key, self.stale_republishes)

    # -- measurement ------------------------------------------------------ #

    def eclipse_progress(self) -> float:
        """Mean adversary share of honest k-closest views of the victim key.

        0.0 means no honest routing view near the victim contains a sybil;
        1.0 means the victim's ring is fully eclipsed.  Read-only and
        RNG-free, so the metrics recorder may sample it freely.
        """
        if not self._sybil_ids:
            return 0.0
        k = self.overlay.node_config.k
        sample = self.overlay.live_nodes()[:64]
        if not sample:
            return 0.0
        total = 0.0
        for node in sample:
            closest = node.routing_table.closest_contacts(self.victim, k)
            if not closest:
                continue
            total += sum(
                1 for contact in closest if contact.node_id in self._sybil_ids
            ) / len(closest)
        return total / len(sample)

    def is_adversary_id(self, node_id: NodeID) -> bool:
        return node_id in self._sybil_ids

    def counters(self) -> dict[str, Any]:
        """Flat snapshot of every attack counter (stable key order)."""
        out: dict[str, Any] = {
            "sybil_joins": self.sybil_joins,
            "compromised_nodes": len(self.compromised),
            "lies_served": self.lies_served,
            "blackholed_stores": self.blackholed_stores,
            "blackholed_appends": self.blackholed_appends,
        }
        for kind in FORGE_KINDS:
            for metric, count in self.forged_stores[kind].snapshot().items():
                out[f"forge_{kind.replace('-', '_')}_{metric}"] = count
        for metric, count in self.forged_appends.snapshot().items():
            out[f"forged_append_{metric}"] = count
        for metric, count in self.stale_republishes.snapshot().items():
            out[f"stale_republish_{metric}"] = count
        return out

    def forged_writes_sent(self) -> int:
        return (
            sum(o.sent for o in self.forged_stores.values())
            + self.forged_appends.sent
            + self.stale_republishes.sent
        )

    def forged_writes_accepted(self) -> int:
        return (
            sum(o.accepted for o in self.forged_stores.values())
            + self.forged_appends.accepted
            + self.stale_republishes.accepted
        )

    def forged_writes_rejected(self) -> int:
        return (
            sum(o.rejected for o in self.forged_stores.values())
            + self.forged_appends.rejected
            + self.stale_republishes.rejected
        )
