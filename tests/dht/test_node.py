"""Unit tests for the Kademlia node (RPC handling, store/retrieve/append)."""

import pytest

from repro.core.blocks import BlockType
from repro.dht.likir import CertificationService, LikirAuthError, SignedValue
from repro.dht.messages import FindNodeRequest, PingRequest, StoreRequest
from repro.dht.node import (
    MAX_SUSPECTS,
    SUSPECT_BASE_MS,
    SUSPECT_CAP_MS,
    KademliaNode,
    NodeConfig,
    RefreshPass,
)
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
    config = NodeConfig(k=8, alpha=2, replicate=2, **config_kwargs)
    return KademliaNode(
        node_id=identity.node_id,
        network=network,
        config=config,
        certification=certification,
    )


@pytest.fixture()
def trio(network, certification):
    """Three joined nodes."""
    a = make_node(network, certification, "a")
    b = make_node(network, certification, "b")
    c = make_node(network, certification, "c")
    a.join(None)
    b.join(a.contact)
    c.join(a.contact)
    return a, b, c


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(k=0)
        with pytest.raises(ValueError):
            NodeConfig(alpha=0)
        with pytest.raises(ValueError):
            NodeConfig(replicate=0)
        with pytest.raises(ValueError):
            NodeConfig(k=2, replicate=3)


class TestMembership:
    def test_join_populates_routing_tables(self, trio):
        a, b, c = trio
        assert b.node_id in a.routing_table
        assert a.node_id in b.routing_table
        # c learned about b (or at least about a) through the join lookup.
        assert len(c.routing_table) >= 1
        assert all(node.joined for node in trio)

    def test_ping(self, trio):
        a, b, _c = trio
        assert a.ping(b.contact)

    def test_ping_dead_node_fails_and_evicts(self, trio):
        a, b, _c = trio
        b.leave()
        assert not a.ping(b.contact)
        assert b.node_id not in a.routing_table

    def test_leave_unregisters_and_optionally_returns_items(self, trio, network):
        a, b, _c = trio
        key = NodeID.hash_of("x")
        b.storage.put(key, "value")
        items = b.leave(republish=True)
        assert key in items
        assert not network.is_registered(b.address)


class TestStoreRetrieve:
    def test_store_and_retrieve_plain_value(self, trio):
        a, _b, c = trio
        key = NodeID.hash_of("some-key")
        a.store(key, {"payload": 42})
        value, outcome = c.retrieve(key)
        assert value == {"payload": 42}

    def test_retrieve_missing_key(self, trio):
        a, _b, _c = trio
        value, outcome = a.retrieve(NodeID.hash_of("nothing-here"))
        assert value is None
        assert not outcome.found_value

    def test_store_replicates_to_multiple_nodes(self, trio):
        a, b, c = trio
        key = NodeID.hash_of("replicated")
        a.store(key, "v")
        holders = sum(1 for node in trio if key in node.storage)
        assert holders >= 2  # replicate=2

    def test_signed_store_verified_and_unwrapped(self, trio, certification):
        a, _b, c = trio
        alice = certification.register("alice")
        key = NodeID.hash_of("signed-key")
        a.store(key, {"data": 1}, identity=alice)
        value, _ = c.retrieve(key)
        assert value == {"data": 1}

    def test_forged_signed_store_rejected(self, trio, certification):
        a, b, _c = trio
        alice = certification.register("alice")
        key = NodeID.hash_of("forged")
        good = SignedValue.create(alice, key, "value")
        forged = SignedValue(
            publisher="alice", key_hex=good.key_hex, value="other", credential=good.credential
        )
        from repro.dht.messages import StoreRequest

        with pytest.raises(LikirAuthError):
            b._dispatch(
                a.address,
                StoreRequest(
                    sender_id=a.node_id, sender_address=a.address, key=key, value=forged
                ),
            )


class TestAppend:
    def test_append_accumulates_across_clients(self, trio):
        a, b, c = trio
        key = NodeID.hash_of("rock|3")
        a.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        b.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 2, "jazz": 1})
        value, _ = c.retrieve(key)
        assert value["entries"]["pop"] == 3
        assert value["entries"]["jazz"] == 1

    def test_append_if_new_semantics_through_rpc(self, trio):
        a, _b, c = trio
        key = NodeID.hash_of("rock|3b")
        a.append(
            key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 7}, increments_if_new={"pop": 1}
        )
        value, _ = c.retrieve(key)
        assert value["entries"]["pop"] == 1
        a.append(
            key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 7}, increments_if_new={"pop": 1}
        )
        value, _ = c.retrieve(key)
        assert value["entries"]["pop"] == 8


class TestServerCounters:
    def test_rpcs_served_counters_grow(self, trio):
        a, b, _c = trio
        before = dict(b.rpcs_served)
        a.ping(b.contact)
        a.lookup_node(NodeID.hash_of("target"))
        assert b.rpcs_served["ping"] >= before["ping"] + 1
        assert b.rpcs_served["find_node"] >= before["find_node"]

    def test_unknown_rpc_rejected(self, trio):
        a, b, _c = trio
        with pytest.raises(TypeError):
            b._dispatch(a.address, object())


class TestDispatchNowait:
    """The entry a thread that must not block serves through (``udp-recv``):
    ``_dispatch`` in everything but the evict-probe, which it declines."""

    @staticmethod
    def full_bucket(network):
        """A k=1 server whose bucket 2 holds ``resident``; ``stranger`` falls
        into the same bucket, ``elsewhere`` into another."""
        config = NodeConfig(k=1, alpha=1, replicate=1, verify_credentials=False)
        server, resident, stranger, elsewhere = (
            KademliaNode(NodeID(value), network=network, config=config)
            for value in (0, 0b100, 0b101, 0b1000000)
        )
        assert server._dispatch(resident.address, find_node_from(resident)) is not None
        assert resident.node_id in server.routing_table
        return server, resident, stranger, elsewhere

    def test_serves_exactly_like_dispatch_when_no_probe_is_needed(self, network):
        server, resident, _stranger, elsewhere = self.full_bucket(network)
        for sender in (resident, elsewhere):  # known sender; bucket with room
            before = server.rpcs_served["find_node"]
            response = server.dispatch_nowait(sender.address, find_node_from(sender))
            assert response == server._dispatch(sender.address, find_node_from(sender))
            assert server.rpcs_served["find_node"] == before + 2
            assert sender.node_id in server.routing_table

    def test_declines_before_any_side_effect_when_the_probe_is_due(self, network):
        server, resident, stranger, _elsewhere = self.full_bucket(network)
        key = NodeID.hash_of("k")
        store = StoreRequest(
            sender_id=stranger.node_id, sender_address=stranger.address, key=key, value={"n": 1}
        )
        served, sent = dict(server.rpcs_served), network.stats.messages_sent
        assert server.dispatch_nowait(stranger.address, store) is None
        assert server.rpcs_served == served  # not counted ...
        assert server.storage.get(key) is None  # ... not executed ...
        assert network.stats.messages_sent == sent  # ... and nobody pinged
        assert stranger.node_id not in server.routing_table
        # The blocking entry then serves it: probes the live resident, keeps it.
        assert server._dispatch(stranger.address, store).stored
        assert server.rpcs_served["store"] == served["store"] + 1
        assert resident.rpcs_served["ping"] == 1
        assert resident.node_id in server.routing_table
        assert stranger.node_id not in server.routing_table

    def test_a_ping_is_never_declined(self, network):
        server, _resident, stranger, _elsewhere = self.full_bucket(network)
        ping = PingRequest(sender_id=stranger.node_id, sender_address=stranger.address)
        assert server.dispatch_nowait(stranger.address, ping).alive
        assert server.rpcs_served["ping"] == 1

    def test_a_declined_suspect_is_still_cleared_once(self, network):
        """Hearing from a suspect lifts the suspicion on the first look; the
        second (blocking) pass finds nothing left to lift."""
        server, _resident, stranger, _elsewhere = self.full_bucket(network)
        server._strike(stranger.node_id)
        assert server.dispatch_nowait(stranger.address, find_node_from(stranger)) is None
        assert not server.is_suspect(stranger.node_id)
        assert server._dispatch(stranger.address, find_node_from(stranger)) is not None


class TestRepliesAreNeverProbedFor:
    """A contact that answers an RPC is recorded, or parked in the replacement
    cache of its full bucket, and nobody is pinged on its behalf: a stale
    resident leaves on the first real RPC to it that fails."""

    def test_lookup_store_and_append_send_no_ping(self, network):
        server, resident, stranger, elsewhere = TestDispatchNowait.full_bucket(network)
        resident.routing_table.record_contact(stranger.contact)
        # Both keys are closer to stranger than to resident: every lookup asks
        # resident, hears of stranger, and stranger answers.
        key, counter_key = stranger.node_id, NodeID(0b111)
        server.lookup_node(key)
        server.store(key, {"n": 1})
        server.append(counter_key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        nodes = (server, resident, stranger, elsewhere)
        assert [node.rpcs_served["ping"] for node in nodes] == [0, 0, 0, 0]
        assert stranger.rpcs_served["find_node"] == 3
        assert stranger.rpcs_served["store"] == stranger.rpcs_served["append"] == 1
        assert server.routing_table.export_buckets() == [
            (2, [resident.contact], [stranger.contact])
        ]
        resident.leave()
        assert server.lookup_node(key).failures == 1
        assert server.routing_table.export_buckets() == [(2, [stranger.contact], [])]


def find_node_from(sender: KademliaNode) -> FindNodeRequest:
    return FindNodeRequest(
        sender_id=sender.node_id,
        sender_address=sender.address,
        target=NodeID.hash_of("target"),
        count=8,
    )


class TestLookups:
    def test_lookup_value_checks_local_storage_first(self, trio, network):
        a, _b, _c = trio
        key = NodeID.hash_of("local")
        a.storage.put(key, "here")
        sent_before = network.stats.messages_sent
        outcome = a.lookup_value(key)
        assert outcome.found_value
        assert network.stats.messages_sent == sent_before  # no network traffic

    def test_lookup_node_returns_closest_live_contacts(self, trio):
        a, b, c = trio
        outcome = a.lookup_node(b.node_id)
        ids = {contact.node_id for contact in outcome.closest}
        assert b.node_id in ids

    def test_retrieve_with_top_n_filtering(self, trio):
        a, _b, c = trio
        key = NodeID.hash_of("rock|filtered")
        a.append(
            key,
            "rock",
            BlockType.TAG_NEIGHBOURS,
            {f"t{i}": i + 1 for i in range(10)},
        )
        value, _ = c.retrieve(key, top_n=3)
        assert len(value["entries"]) == 3


class TestLargerOverlay:
    def test_twenty_node_overlay_stores_and_finds_many_keys(self, network, certification):
        nodes = []
        for index in range(20):
            node = make_node(network, certification, f"peer{index}")
            node.join(nodes[0].contact if nodes else None)
            nodes.append(node)
        # Store 30 keys from random access points, read them back from others.
        for i in range(30):
            key = NodeID.hash_of(f"key-{i}")
            nodes[i % len(nodes)].store(key, f"value-{i}")
        for i in range(30):
            key = NodeID.hash_of(f"key-{i}")
            value, _ = nodes[(i * 7 + 3) % len(nodes)].retrieve(key)
            assert value == f"value-{i}"

    def test_refresh_buckets_issues_lookups(self, trio):
        a, _b, _c = trio
        assert a.refresh_buckets().refreshed >= 1


def bucket_of(node: KademliaNode, target: NodeID) -> int:
    return (node.node_id.value ^ target.value).bit_length() - 1


def radius(node: KademliaNode) -> int:
    """Bucket index of the k-th closest contact to *node*'s own id."""
    ranked = sorted(
        node.routing_table.contacts(), key=lambda c: c.node_id.value ^ node.node_id.value
    )
    return bucket_of(node, ranked[node.config.k - 1].node_id)


def refresh_pass(node: KademliaNode, since: float) -> tuple[list, int]:
    """One refresh pass: the buckets it looked up, in order (``"self"`` for
    the self-lookup), and the number of buckets it says it refreshed."""
    targets = []
    lookup_node = node.lookup_node
    node.lookup_node = lambda target: targets.append(target) or lookup_node(target)
    try:
        refreshed = node.refresh_buckets(since=since).refreshed
    finally:
        del node.lookup_node
    return ["self" if t == node.node_id else bucket_of(node, t) for t in targets], refreshed


def joined_overlay(network, certification, size: int) -> list[KademliaNode]:
    nodes = []
    for index in range(size):
        node = make_node(network, certification, f"peer{index}")
        node.join(nodes[0].contact if nodes else None)
        nodes.append(node)
    return nodes


class TestRefreshSkip:
    """Kademlia §2.3: a bucket one of the node's own lookups walked since the
    previous refresh is fresh already."""

    @pytest.fixture()
    def overlay(self, network, certification):
        return joined_overlay(network, certification, 16)

    def test_a_walked_bucket_is_skipped_and_an_untouched_one_refreshed(self, overlay, network):
        node = overlay[0]
        since = network.clock.now
        network.clock.advance(1.0)
        walked = max(node.routing_table.bucket_utilisation())
        node.lookup_node(NodeID(node.node_id.value ^ (1 << walked)))
        buckets = node.routing_table.bucket_utilisation()
        r = radius(node)
        assert min(buckets) < r <= walked  # near buckets, and a far one walked
        skips = PERF.counters.get("maint.refresh_skips", 0)

        targets, refreshed = refresh_pass(node, since)
        assert targets == ["self"] + [i for i in buckets if r <= i != walked]
        assert refreshed == len(buckets) - 1
        assert PERF.counters.get("maint.refresh_skips", 0) == skips + 1

    def test_lookup_value_counts_but_a_local_hit_does_not(self, overlay, network):
        node = overlay[0]
        since = network.clock.now
        network.clock.advance(1.0)
        local = NodeID.hash_of("local")
        node.storage.put(local, "here")
        node.lookup_value(local)
        assert bucket_of(node, local) not in node.bucket_lookup_at
        node.lookup_value(NodeID(local.value ^ 1))
        assert node.bucket_lookup_at[bucket_of(node, local)] > since

    def test_a_bucket_walked_before_the_window_is_refreshed(self, overlay, network):
        node = overlay[0]
        buckets = node.routing_table.bucket_utilisation()
        near, far = min(buckets), max(buckets)
        for walked in (near, far):
            node.lookup_node(NodeID(node.node_id.value ^ (1 << walked)))
        network.clock.advance(1.0)
        buckets = node.routing_table.bucket_utilisation()
        assert near < radius(node) <= far

        targets, refreshed = refresh_pass(node, since=network.clock.now)
        assert targets[0] == "self"  # the near bucket's refresh
        assert far in targets
        assert refreshed == len(buckets)

    def test_serve_node_refresh_obeys_the_same_rule(self):
        from repro.net.server import ServeNode

        with ServeNode() as a, ServeNode() as b:
            a.bootstrap(None)
            b.bootstrap(a.address)
            assert b.refresh().refreshed == 1  # the join walked no bucket
            b.node.lookup_node(a.node_id)
            assert b.refresh().refreshed == 0  # the lookup refreshed a's bucket
            assert b.refresh().refreshed == 1  # ... until the next window


class TestNeighbourhoodRefresh:
    """Every due bucket below the k-th closest contact's is refreshed by one
    lookup of the node's own id; each due bucket farther out by its own,
    unless it is full and its least-recently-seen contact answers a PING."""

    def test_a_converged_overlay_looks_itself_up_once_plus_once_per_non_full_far_bucket(
        self, network, certification
    ):
        overlay = joined_overlay(network, certification, 40)
        network.clock.advance(1.0)
        with_neighbourhood = with_full_far = 0
        for node in overlay:
            buckets = node.routing_table.bucket_utilisation()
            r = radius(node)
            pings = PERF.counters.get("maint.refresh_pings", 0)
            targets, refreshed = refresh_pass(node, since=network.clock.now)
            near = [i for i in buckets if i < r]
            far = [i for i in buckets if i >= r]
            full = [i for i in far if buckets[i] >= node.config.k]
            assert targets == ["self"] * bool(near) + [i for i in far if i not in full]
            assert PERF.counters.get("maint.refresh_pings", 0) == pings + len(full)
            assert refreshed == len(buckets)
            with_neighbourhood += len(near) >= 2
            with_full_far += bool(full)
        assert with_neighbourhood >= len(overlay) // 2
        assert with_full_far  # the PING rule ran

    def test_a_pass_with_no_due_near_bucket_sends_no_self_lookup(self, network, certification):
        node = joined_overlay(network, certification, 16)[0]
        since = network.clock.now
        network.clock.advance(1.0)
        r = radius(node)
        for index in [i for i in node.routing_table.bucket_utilisation() if i < r]:
            node.lookup_node(NodeID(node.node_id.value ^ (1 << index)))
        buckets = node.routing_table.bucket_utilisation()
        assert radius(node) == r

        targets, refreshed = refresh_pass(node, since)
        assert targets == [i for i in buckets if i >= r]
        assert refreshed == len(targets)

    def test_a_table_under_k_contacts_looks_up_every_due_bucket(self, trio, network):
        a, _b, _c = trio
        buckets = a.routing_table.bucket_utilisation()
        assert len(a.routing_table) < a.config.k

        targets, refreshed = refresh_pass(a, since=network.clock.now)
        assert targets == list(buckets)
        assert refreshed == len(buckets)

    def test_a_joiner_inside_the_radius_is_found_by_the_next_pass(self, network, certification):
        x = joined_overlay(network, certification, 40)[0]
        joiner = KademliaNode(
            NodeID(x.node_id.value ^ 1),
            network=network,
            config=NodeConfig(k=8, alpha=2, replicate=2),
        )
        # The joiner announces itself to x's neighbourhood, never to x.
        served = sum(x.rpcs_served.values())
        for contact in x.routing_table.closest_contacts(x.node_id):
            assert joiner.ping(contact)
        joiner.joined = True
        assert sum(x.rpcs_served.values()) == served
        assert joiner.node_id not in x.routing_table
        network.clock.advance(1.0)

        targets, _ = refresh_pass(x, since=network.clock.now)
        assert targets[0] == "self"
        assert joiner.node_id in x.routing_table

    def test_a_joiner_in_a_far_bucket_with_room_is_found_by_the_next_pass(
        self, network, certification
    ):
        overlay = joined_overlay(network, certification, 40)
        x, index = next(
            (node, i)
            for node in overlay
            for i, size in node.routing_table.bucket_utilisation().items()
            if radius(node) <= i and size < node.config.k
        )
        joiner = KademliaNode(
            NodeID(x.node_id.value ^ (1 << index) ^ 1),
            network=network,
            config=NodeConfig(k=8, alpha=2, replicate=2),
        )
        assert bucket_of(x, joiner.node_id) == index
        # The joiner announces itself to the peers of x's bucket, never to x.
        served = sum(x.rpcs_served.values())
        for contact in x.routing_table.bucket(index).contacts():
            assert joiner.ping(contact)
        joiner.joined = True
        assert sum(x.rpcs_served.values()) == served
        assert joiner.node_id not in x.routing_table
        network.clock.advance(1.0)

        targets, _ = refresh_pass(x, since=network.clock.now)
        assert index in targets
        assert joiner.node_id in x.routing_table

    def test_serve_node_refresh_looks_itself_up_over_udp(self):
        from repro.net.server import ServeNode

        base = NodeID.hash_of("serve-refresh").value
        config = NodeConfig(k=2, alpha=2, replicate=1, verify_credentials=False)
        # Buckets 0 (the neighbourhood), 5 (holds the k-th closest) and 100.
        nodes = [
            ServeNode(node_id=NodeID(base ^ offset), node_config=config)
            for offset in (0, 1, 1 << 5, 1 << 100)
        ]
        try:
            node, *peers = nodes
            node.bootstrap(None)
            for peer in peers:
                peer.bootstrap(node.address)
            assert node.node.routing_table.bucket_utilisation() == {0: 1, 5: 1, 100: 1}
            find_nodes = sum(peer.node.rpcs_served["find_node"] for peer in peers)

            targets = []
            lookup_node = node.node.lookup_node
            node.node.lookup_node = lambda target: targets.append(target) or lookup_node(target)
            assert node.refresh().refreshed == 3
            assert [bucket_of(node.node, t) for t in targets] == [-1, 5, 100]
            assert sum(peer.node.rpcs_served["find_node"] for peer in peers) > find_nodes
        finally:
            for each in nodes:
                each.close()


class TestFullFarBucketPing:
    """A due far bucket that is full sends one PING to its least-recently-seen
    contact first: an answer makes a walk pointless (Kademlia §2.2), silence
    evicts the contact and the bucket is walked."""

    @pytest.fixture()
    def due(self, network, certification):
        """A node of a 40-node overlay, its farthest full bucket -- the only
        one due: every other bucket was walked inside the window -- the
        window's start, and the overlay."""
        overlay = joined_overlay(network, certification, 40)
        node = overlay[0]
        since = network.clock.now
        network.clock.advance(1.0)
        buckets = node.routing_table.bucket_utilisation()
        full = max(
            i for i, size in buckets.items() if radius(node) <= i and size >= node.config.k
        )
        for index in buckets:
            if index != full:
                node.lookup_node(NodeID(node.node_id.value ^ (1 << index)))
        assert node.routing_table.bucket_utilisation().keys() == buckets.keys()
        return node, full, since, overlay

    def test_a_live_oldest_contact_costs_one_ping_and_no_walk(self, due, network):
        node, full, since, overlay = due
        oldest = node.routing_table.bucket(full).least_recently_seen()
        peer = next(each for each in overlay if each.node_id == oldest.node_id)
        pings = peer.rpcs_served["ping"]
        find_nodes = network.stats.of("find_node").sent
        sent = network.stats.messages_sent

        outcome = node.refresh_buckets(since=since)
        assert outcome == RefreshPass(
            buckets=len(node.routing_table.bucket_utilisation()), refreshed=1, pinged=1
        )
        assert outcome.skipped == outcome.buckets - 1
        assert peer.rpcs_served["ping"] == pings + 1
        assert network.stats.of("find_node").sent == find_nodes
        assert network.stats.messages_sent == sent + 2  # request and answer
        # The answer made it the bucket's most recently seen contact.
        assert node.routing_table.bucket(full).contacts()[-1].node_id == oldest.node_id

    def test_a_crashed_oldest_contact_is_struck_and_its_bucket_walked(self, due, network):
        node, full, since, _ = due
        oldest = node.routing_table.bucket(full).least_recently_seen()
        network.partition(oldest.address)
        strikes = PERF.counters.get("dht.suspect_strikes", 0)

        targets, refreshed = refresh_pass(node, since)
        assert targets == [full]
        assert refreshed == 1
        assert oldest.node_id not in node.routing_table
        assert node.is_suspect(oldest.node_id)
        assert PERF.counters.get("dht.suspect_strikes", 0) == strikes + 1

    def test_serve_node_refresh_pings_a_full_far_bucket_over_udp(self):
        from repro.net.server import ServeNode

        base = NodeID.hash_of("serve-refresh-ping").value
        config = NodeConfig(k=2, alpha=2, replicate=1, verify_credentials=False)
        # Bucket 0 (the neighbourhood), 5 (holds the k-th closest, room for
        # one more) and 100 (full).
        offsets = (0, 1, 1 << 5, 1 << 100, (1 << 100) | 1)
        nodes = [ServeNode(node_id=NodeID(base ^ o), node_config=config) for o in offsets]
        try:
            node, *peers = nodes
            node.bootstrap(None)
            for peer in peers:
                peer.bootstrap(node.address)
            table = node.node.routing_table
            assert table.bucket_utilisation() == {0: 1, 5: 1, 100: 2}
            oldest = table.bucket(100).least_recently_seen()
            pinged = next(p for p in peers if p.node_id == oldest.node_id)
            pings = pinged.node.rpcs_served["ping"]

            targets = []
            lookup_node = node.node.lookup_node
            node.node.lookup_node = lambda target: targets.append(target) or lookup_node(target)
            assert node.refresh() == RefreshPass(buckets=3, refreshed=3, pinged=1)
            assert [bucket_of(node.node, t) for t in targets] == [-1, 5]
            assert pinged.node.rpcs_served["ping"] == pings + 1
        finally:
            for each in nodes:
                each.close()


class TestFailureMemory:
    """What a node watched fail outranks what other peers still tell it."""

    @staticmethod
    def strike(node, network, victim):
        """Crash-like silence: *victim* stops answering, *node* finds out."""
        network.partition(victim.address)
        assert not node.ping(victim.contact)

    def test_unreachable_peer_is_struck_evicted_and_suspected(self, trio, network):
        a, _b, c = trio
        self.strike(a, network, c)
        assert c.node_id not in a.routing_table
        assert a.is_suspect(c.node_id)
        assert a.suspect_count == 1
        [(node_id, strikes, until)] = a.export_suspects()
        assert (node_id, strikes) == (c.node_id, 1)
        assert until == network.clock.now + SUSPECT_BASE_MS

    def test_hearsay_is_ignored_while_the_window_runs(self, trio, network):
        a, b, c = trio
        self.strike(a, network, c)
        assert c.node_id in b.routing_table  # b never saw c fail: it keeps vouching
        failed_before = network.stats.rpcs_failed_unreachable
        for _ in range(5):
            outcome = a.lookup_node(c.node_id)
            assert outcome.failures == 0
            assert c.node_id not in {contact.node_id for contact in outcome.closest}
        assert network.stats.rpcs_failed_unreachable == failed_before
        assert c.node_id not in a.routing_table

    def test_after_the_window_one_mention_buys_one_more_try(self, trio, network):
        a, _b, c = trio
        self.strike(a, network, c)
        network.clock.advance(SUSPECT_BASE_MS)
        assert not a.is_suspect(c.node_id)
        failed_before = network.stats.rpcs_failed_unreachable
        a.lookup_node(c.node_id)
        a.lookup_node(c.node_id)
        # Exactly one retry, and the second strike doubles the window.
        assert network.stats.rpcs_failed_unreachable == failed_before + 1
        [(_, strikes, until)] = a.export_suspects()
        assert strikes == 2
        assert until - network.clock.now == pytest.approx(2 * SUSPECT_BASE_MS, abs=1_000.0)

    def test_request_from_the_suspect_clears_it_at_once(self, trio, network):
        a, _b, c = trio
        self.strike(a, network, c)
        network.heal(c.address)
        assert c.ping(a.contact)  # first-hand: a serves a request from c
        assert not a.is_suspect(c.node_id)
        assert a.export_suspects() == []
        assert c.node_id in a.routing_table

    def test_answered_rpc_clears_the_strike_count(self, trio, network):
        a, _b, c = trio
        self.strike(a, network, c)
        network.heal(c.address)
        network.clock.advance(SUSPECT_BASE_MS)
        assert a.ping(c.contact)
        assert a.export_suspects() == []
        self.strike(a, network, c)
        assert a.export_suspects()[0][1] == 1  # not "consecutive" any more

    def test_consecutive_strikes_double_the_window_up_to_the_cap(self, trio, network):
        a, _b, c = trio
        network.partition(c.address)
        windows = []
        for _ in range(10):
            assert not a.ping(c.contact)
            [(_, _, until)] = a.export_suspects()
            windows.append(until - network.clock.now)
            network.clock.advance_to(until)
        expected = [min(SUSPECT_BASE_MS * 2**n, SUSPECT_CAP_MS) for n in range(10)]
        assert windows == pytest.approx(expected)
        assert windows[-1] == windows[-2] == SUSPECT_CAP_MS

    def test_map_is_allocated_by_the_first_strike_only(self, trio, network):
        a, b, c = trio
        a.lookup_node(c.node_id)
        a.store(NodeID.hash_of("k"), "v")
        assert a._suspects is None and b._suspects is None
        self.strike(a, network, c)
        assert a._suspects is not None and b._suspects is None

    def test_map_never_outgrows_its_cap(self, trio, network):
        a, _b, _c = trio
        ghosts = [
            Contact(NodeID.hash_of(f"ghost-{i}"), f"nowhere-{i}")
            for i in range(MAX_SUSPECTS + 20)
        ]
        for ghost in ghosts:
            assert not a.ping(ghost)
            assert len(a.export_suspects()) <= MAX_SUSPECTS
        remembered = {node_id for node_id, _, _ in a.export_suspects()}
        assert len(remembered) == MAX_SUSPECTS
        # The suspicions ending soonest -- the oldest -- made room.
        assert remembered == {ghost.node_id for ghost in ghosts[20:]}

    def test_store_and_append_step_over_a_suspect_replica(self, trio, network):
        a, b, c = trio
        # c is the closest possible replica for keys next to its own id.
        store_key, append_key = c.node_id, NodeID(c.node_id.value ^ 1)
        self.strike(a, network, c)
        failed_before = network.stats.rpcs_failed_unreachable
        assert a.store(store_key, "v").accepted_replicas >= 1
        outcome = a.append(append_key, "owner", BlockType.TAG_NEIGHBOURS, {"x": 1})
        assert outcome.accepted_replicas >= 1
        assert network.stats.rpcs_failed_unreachable == failed_before

    def test_a_single_lost_datagram_evicts_but_does_not_strike(self, certification):
        lossy = SimulatedNetwork(
            NetworkConfig(min_latency_ms=1, max_latency_ms=2, loss_rate=0.99, seed=0)
        )
        a = make_node(lossy, certification, "la")
        b = make_node(lossy, certification, "lb")
        a.routing_table.record_contact(b.contact)
        assert not a.ping(b.contact)  # MessageDropped: b is alive and registered
        assert lossy.stats.messages_dropped == 1
        assert b.node_id not in a.routing_table
        assert not a.is_suspect(b.node_id) and a._suspects is None

    def test_strikes_and_skips_are_counted(self, trio, network):
        a, _b, c = trio
        PERF.reset()
        self.strike(a, network, c)
        a.lookup_node(c.node_id)
        assert PERF.counter("dht.suspect_strikes") == 1
        assert PERF.counter("dht.suspect_skips") >= 1

    def test_export_restore_round_trip(self, trio, network):
        a, b, c = trio
        self.strike(a, network, c)
        self.strike(a, network, b)
        rows = a.export_suspects()
        other = make_node(network, CertificationService(seed=1), "other")
        other.restore_suspects(rows)
        assert other.export_suspects() == rows
        assert other.is_suspect(c.node_id) and other.is_suspect(b.node_id)
        other.restore_suspects([])
        assert other._suspects is None
