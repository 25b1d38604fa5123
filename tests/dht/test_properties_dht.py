"""Property-based tests for the DHT data structures."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockType
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.node_id import ID_BITS, NodeID
from repro.dht.routing_table import Contact, RoutingTable
from repro.dht.storage import LocalStorage
from repro.simulation.network import NetworkConfig, SimulatedNetwork

node_ids = st.integers(min_value=0, max_value=(1 << ID_BITS) - 1).map(NodeID)


@settings(max_examples=80, deadline=None)
@given(a=node_ids, b=node_ids, c=node_ids)
def test_xor_metric_axioms(a, b, c):
    assert a.distance_to(b) == b.distance_to(a)
    assert (a.distance_to(b) == 0) == (a == b)
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c)


@settings(max_examples=50, deadline=None)
@given(owner=node_ids, others=st.lists(node_ids, min_size=1, max_size=60), k=st.integers(2, 8))
def test_routing_table_invariants(owner, others, k):
    """Bucket sizes never exceed k, the owner is never stored, and
    closest_contacts always returns contacts sorted by XOR distance."""
    table = RoutingTable(owner, k=k)
    for value in others:
        table.record_contact(Contact(node_id=value, address=f"a{value.value % 997}"))
    assert owner not in table
    for index in range(ID_BITS):
        assert len(table.bucket(index)) <= k
    target = others[0]
    closest = table.closest_contacts(target)
    distances = [c.distance_to(target) for c in closest]
    assert distances == sorted(distances)
    assert len(closest) <= k


@settings(max_examples=50, deadline=None)
@given(
    increments=st.lists(
        st.dictionaries(
            keys=st.sampled_from(["a", "b", "c", "d"]),
            values=st.integers(min_value=1, max_value=5),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=12,
    ),
    permutation_seed=st.integers(min_value=0, max_value=1000),
)
def test_storage_appends_commute(increments, permutation_seed):
    """Counter-block appends are order-independent (the property DHARMA's
    token-based updates rely on)."""
    import random

    key = NodeID.hash_of("block")

    def apply_all(order):
        storage = LocalStorage()
        for inc in order:
            storage.append(key, "owner", BlockType.TAG_NEIGHBOURS, inc)
        return storage.counter_block(key).entries

    shuffled = list(increments)
    random.Random(permutation_seed).shuffle(shuffled)
    assert apply_all(increments) == apply_all(shuffled)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        keys=st.text(min_size=1, max_size=3),
        values=st.integers(min_value=1, max_value=100),
        min_size=1,
        max_size=20,
    ),
    top_n=st.integers(min_value=1, max_value=25),
)
def test_index_side_filtering_returns_heaviest_entries(entries, top_n):
    storage = LocalStorage()
    key = NodeID.hash_of("filtered")
    storage.append(key, "owner", BlockType.TAG_NEIGHBOURS, entries)
    payload = storage.get(key, top_n=top_n)
    returned = payload["entries"]
    assert len(returned) == min(top_n, len(entries))
    if len(entries) > top_n:
        kept_min = min(returned.values())
        dropped = {k: v for k, v in entries.items() if k not in returned}
        assert all(v <= kept_min for v in dropped.values())


@settings(max_examples=40, deadline=None)
@given(
    dead=st.sets(st.integers(min_value=0, max_value=7), max_size=4),
    loss_rate=st.sampled_from([0.0, 0.1, 0.3]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["lookup", "store", "append", "retrieve", "ping", "wait"]),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_a_peer_that_always_answers_is_never_suspected(dead, loss_rate, ops, seed):
    """Whatever the live nodes do, and however many datagrams the network
    loses, only peers that really stopped answering end up suspected."""
    network = SimulatedNetwork(
        NetworkConfig(min_latency_ms=1, max_latency_ms=5, loss_rate=loss_rate, seed=seed)
    )
    config = NodeConfig(k=4, alpha=2, replicate=2, verify_credentials=False)
    nodes = [
        KademliaNode(NodeID.hash_of(f"peer-{seed}-{i}"), network, config) for i in range(8)
    ]
    for node in nodes:
        node.join(nodes[0].contact if node is not nodes[0] else None)
    for index in dead:
        network.partition(nodes[index].address)
    live = [node for i, node in enumerate(nodes) if i not in dead]
    dead_ids = {nodes[i].node_id for i in dead}

    for kind, who, what in ops:
        actor = live[who % len(live)]
        key = NodeID.hash_of(f"key-{what}")
        if kind == "lookup":
            actor.lookup_node(nodes[what].node_id)
        elif kind == "store":
            actor.store(key, {"v": what})
        elif kind == "append":
            actor.append(NodeID.hash_of(f"ctr-{what}"), "o", BlockType.TAG_NEIGHBOURS, {"t": 1})
        elif kind == "retrieve":
            actor.retrieve(key)
        elif kind == "ping":
            actor.ping(nodes[what].contact)
        else:
            network.clock.advance(what * 2_000.0)

    for node in live:
        suspected = {node_id for node_id, _, _ in node.export_suspects()}
        assert suspected <= dead_ids
