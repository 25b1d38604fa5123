"""Node-level Likir enforcement: every LikirAuthError path through the RPCs.

:mod:`tests.dht.test_likir` covers the credential layer in isolation; these
tests drive the same failure modes through a :class:`KademliaNode`'s RPC
handlers -- the paths the adversarial harness
(:mod:`repro.simulation.adversary`) attacks at scale -- and check the
``likir.*`` enforcement counters move.
"""

import pytest

from repro.core.blocks import BlockType
from repro.dht.bootstrap import build_overlay
from repro.dht.likir import CertificationService, Identity, LikirAuthError, SignedValue
from repro.dht.messages import (
    AppendRequest,
    ContactInfo,
    FindNodeResponse,
    FindValueResponse,
    StoreRequest,
)
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact
from repro.perf import PERF
from repro.simulation.network import NetworkConfig, SimulatedNetwork


@pytest.fixture()
def network():
    return SimulatedNetwork(NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0))


@pytest.fixture()
def certification():
    return CertificationService(seed=0)


def make_node(network, certification, name: str, **config_kwargs) -> KademliaNode:
    identity = certification.register(name)
    defaults = dict(k=8, alpha=2, replicate=2, verify_credentials=True)
    defaults.update(config_kwargs)
    return KademliaNode(
        node_id=identity.node_id,
        network=network,
        config=NodeConfig(**defaults),
        certification=certification,
    )


def store_request(sender: KademliaNode, key: NodeID, value) -> StoreRequest:
    return StoreRequest(
        sender_id=sender.node_id, sender_address=sender.address, key=key, value=value
    )


class TestStoreEnforcement:
    def test_tampered_value_rejected_with_counter(self, network, certification):
        a = make_node(network, certification, "a")
        b = make_node(network, certification, "b")
        alice = certification.register("alice")
        key = NodeID.hash_of("k")
        good = SignedValue.create(alice, key, {"entries": {"r": 1}})
        tampered = SignedValue(
            publisher=good.publisher,
            key_hex=good.key_hex,
            value={"entries": {"r": 999}},
            credential=good.credential,
        )
        rejected_before = PERF.counter("likir.rejected")
        with pytest.raises(LikirAuthError):
            b._dispatch(a.address, store_request(a, key, tampered))
        assert PERF.counter("likir.rejected") == rejected_before + 1
        assert key not in b.storage

    def test_replayed_credential_over_different_key_rejected(self, network, certification):
        a = make_node(network, certification, "a")
        b = make_node(network, certification, "b")
        alice = certification.register("alice")
        good = SignedValue.create(alice, NodeID.hash_of("original"), {"entries": {"r": 1}})
        replay_key = NodeID.hash_of("replayed-at")
        replayed = SignedValue(
            publisher=good.publisher,
            key_hex=replay_key.hex(),
            value=good.value,
            credential=good.credential,
        )
        with pytest.raises(LikirAuthError):
            b._dispatch(a.address, store_request(a, replay_key, replayed))
        assert replay_key not in b.storage

    def test_unknown_publisher_rejected(self, network, certification):
        a = make_node(network, certification, "a")
        b = make_node(network, certification, "b")
        mallory = Identity(
            user="mallory", node_id=NodeID.hash_of("mallory"), secret=b"\x07" * 20
        )
        key = NodeID.hash_of("k")
        forged = SignedValue.create(mallory, key, {"entries": {"x": 1}})
        with pytest.raises(LikirAuthError, match="unknown publisher"):
            b._dispatch(a.address, store_request(a, key, forged))

    def test_rejected_store_is_booked_as_an_answered_rpc(self):
        """A STORE the verifying handler rejects still reached a live peer:
        the transport books it ``succeeded``, as UDP books a ``RemoteFault``."""
        overlay = build_overlay(4, seed=0)
        a, b = overlay.nodes[:2]
        mallory = Identity(
            user="mallory", node_id=NodeID.hash_of("mallory"), secret=b"\x07" * 20
        )
        key = NodeID.hash_of("k")
        forged = SignedValue.create(mallory, key, {"entries": {"x": 1}})
        with pytest.raises(LikirAuthError):
            a.transport.send(a.address, b.address, store_request(a, key, forged))
        store = a.transport.stats.of("store")
        assert store.sent == 1
        assert store.sent == store.succeeded + store.failed
        assert store.succeeded == 1

    def test_unconfigured_service_rejects_instead_of_trusting(self, network, certification):
        a = make_node(network, certification, "a")
        unconfigured = KademliaNode(
            node_id=NodeID.hash_of("loner"),
            network=network,
            config=NodeConfig(k=8, alpha=2, replicate=2, verify_credentials=True),
            certification=None,
        )
        alice = certification.register("alice")
        key = NodeID.hash_of("k")
        signed = SignedValue.create(alice, key, {"entries": {"r": 1}})
        with pytest.raises(LikirAuthError, match="no certification service"):
            unconfigured._dispatch(a.address, store_request(a, key, signed))

    def test_verified_store_accepted_with_counter(self, network, certification):
        a = make_node(network, certification, "a")
        b = make_node(network, certification, "b")
        alice = certification.register("alice")
        key = NodeID.hash_of("k")
        signed = SignedValue.create(alice, key, {"entries": {"r": 1}})
        verified_before = PERF.counter("likir.verified")
        response = b._dispatch(a.address, store_request(a, key, signed))
        assert response.stored
        assert PERF.counter("likir.verified") == verified_before + 1


class TestHardenedUnsignedWrites:
    def test_unsigned_overwrite_of_counter_state_rejected(self, network, certification):
        a = make_node(network, certification, "a", require_signed_writes=True)
        b = make_node(network, certification, "b", require_signed_writes=True)
        key = NodeID.hash_of("counter")
        b.storage.put(key, {"owner": "alice", "type": "1", "entries": {"rock": 5}})
        hostile = {"owner": "mallory", "type": "1", "entries": {"attack": 1}}
        with pytest.raises(LikirAuthError, match="unsigned STORE"):
            b._dispatch(a.address, store_request(a, key, hostile))
        assert b.storage.get(key)["entries"] == {"rock": 5}

    def test_unsigned_merge_compatible_republish_allowed(self, network, certification):
        """Honest maintenance republishes are unsigned counter snapshots of
        the same owner/type -- the hardened policy must let them merge."""
        a = make_node(network, certification, "a", require_signed_writes=True)
        b = make_node(network, certification, "b", require_signed_writes=True)
        key = NodeID.hash_of("counter")
        b.storage.put(key, {"owner": "alice", "type": "1", "entries": {"rock": 5}})
        republish = {"owner": "alice", "type": "1", "entries": {"rock": 4, "jazz": 2}}
        response = b._dispatch(a.address, store_request(a, key, republish))
        assert response.stored
        # Merge-on-store: entry-wise max, never a rollback.
        assert b.storage.get(key)["entries"] == {"rock": 5, "jazz": 2}

    def test_append_from_uncertified_sender_rejected(self, network, certification):
        a = make_node(network, certification, "a", require_signed_writes=True)
        b = make_node(network, certification, "b", require_signed_writes=True)
        key = NodeID.hash_of("counter")
        request = AppendRequest(
            sender_id=NodeID.hash_of("self-chosen-id"),  # never issued
            sender_address=a.address,
            key=key,
            owner="alice",
            block_type=BlockType.RESOURCE_TAGS.value,
            increments={"attack": 1000},
        )
        with pytest.raises(LikirAuthError, match="uncertified node id"):
            b._dispatch(a.address, request)
        assert key not in b.storage

    def test_append_from_certified_sender_applies(self, network, certification):
        a = make_node(network, certification, "a", require_signed_writes=True)
        b = make_node(network, certification, "b", require_signed_writes=True)
        key = NodeID.hash_of("counter")
        request = AppendRequest(
            sender_id=a.node_id,
            sender_address=a.address,
            key=key,
            owner="alice",
            block_type=BlockType.RESOURCE_TAGS.value,
            increments={"rock": 1},
        )
        response = b._dispatch(a.address, request)
        assert response.applied


class TestCertifiedContacts:
    def test_self_chosen_node_id_refused_admission(self, network, certification):
        node = make_node(network, certification, "a", certified_contacts=True)
        sybil = Contact(node_id=NodeID.hash_of("sybil"), address="sybil-addr")
        rejected_before = PERF.counter("likir.sybil_rejected")
        node._note_contact(sybil)
        assert sybil.node_id not in node.routing_table
        assert PERF.counter("likir.sybil_rejected") == rejected_before + 1

    def test_certified_node_id_admitted(self, network, certification):
        node = make_node(network, certification, "a", certified_contacts=True)
        peer = certification.register("peer")
        contact = Contact(node_id=peer.node_id, address="peer-addr")
        node._note_contact(contact)
        assert contact.node_id in node.routing_table

    def test_lookup_responses_filtered(self, network, certification):
        node = make_node(network, certification, "a", certified_contacts=True)
        peer = certification.register("peer")
        contacts = [
            Contact(node_id=peer.node_id, address="peer-addr"),
            Contact(node_id=NodeID.hash_of("sybil-1"), address="s1"),
            Contact(node_id=NodeID.hash_of("sybil-2"), address="s2"),
        ]
        admitted = node._admitted(contacts)
        assert [c.address for c in admitted] == ["peer-addr"]

    @pytest.mark.parametrize("find_value", [False, True])
    def test_reply_forged_through_rpc_hook_is_filtered(self, network, certification, find_value):
        """Replies carry routing-table contacts as they are (one contact
        type, no conversion on receipt): admission still runs on every one."""
        node = make_node(network, certification, "a", certified_contacts=True)
        compromised = make_node(network, certification, "b")
        honest = certification.register("peer")
        forged = (
            ContactInfo(NodeID.hash_of("sybil-1"), "s1"),
            ContactInfo(honest.node_id, "peer-addr"),
            ContactInfo(NodeID.hash_of("sybil-2"), "s2"),
        )
        reply = FindValueResponse if find_value else FindNodeResponse
        compromised.rpc_hook = lambda request, response: reply(
            responder_id=response.responder_id, contacts=forged
        )
        rejected_before = PERF.counter("likir.sybil_rejected")
        contacts, value = node.query(compromised.contact, NodeID.hash_of("k"), find_value, None)
        assert value is None
        assert list(contacts) == [Contact(honest.node_id, "peer-addr")]
        assert PERF.counter("likir.sybil_rejected") == rejected_before + 2
