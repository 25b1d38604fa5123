"""Tests for the batched, cache-aware lookup engine."""

import pytest

from repro.core.blocks import BlockKey, BlockType
from repro.dht.api import DHTClient
from repro.dht.batched_lookup import ROUTE_CACHE_SIZE, ROUTE_CACHE_TTL_MS, BatchedLookupEngine
from repro.dht.bootstrap import build_overlay
from repro.dht.node import NodeConfig
from repro.dht.node_id import NodeID
from repro.simulation.network import NetworkConfig


@pytest.fixture()
def overlay():
    return build_overlay(
        16,
        node_config=NodeConfig(k=8, alpha=3, replicate=2),
        network_config=NetworkConfig(min_latency_ms=1.0, max_latency_ms=2.0, seed=21),
        seed=21,
    )


@pytest.fixture()
def engine(overlay):
    return BatchedLookupEngine(overlay.nodes[0])


def remote_key(overlay, node, label: str) -> NodeID:
    """A DHT key whose replica set does not include *node*.

    Keeps the tests deterministic about which engine path fires: a key
    replicated on the access node itself would be answered from local storage
    before the route cache is consulted.
    """
    for index in range(1000):
        key = DHTClient.key_for(BlockKey.tag_resources(f"{label}-{index}"))
        closest = sorted(
            overlay.nodes, key=lambda n: n.node_id.value ^ key.value
        )[: node.config.replicate]
        if node not in closest:
            return key
    raise AssertionError("no remote key found")


class TestRouteCache:
    def test_second_retrieve_uses_cached_route(self, overlay, engine):
        key = remote_key(overlay, engine.node, "rock")
        engine.node.store(key, {"v": 1})
        value1, outcome1 = engine.retrieve(key)
        assert value1 == {"v": 1}
        assert engine.stats.full_lookups == 1
        value2, outcome2 = engine.retrieve(key)
        assert value2 == {"v": 1}
        assert engine.stats.route_hits == 1
        assert engine.stats.full_lookups == 1  # no second iterative lookup
        # The cached-route probe costs at most `replicate` direct messages.
        assert 1 <= outcome2.messages <= engine.node.config.replicate

    def test_store_through_cached_route_skips_lookup(self, overlay, engine):
        key = remote_key(overlay, engine.node, "indie")
        engine.store(key, {"v": 1})
        assert engine.stats.full_lookups == 1
        outcome = engine.store(key, {"v": 2})
        assert engine.stats.route_hits == 1
        assert engine.stats.full_lookups == 1
        assert outcome.messages == 0  # no lookup phase at all
        value, _ = engine.retrieve(key)
        assert value == {"v": 2}

    def test_append_through_cached_route(self, overlay, engine):
        key = remote_key(overlay, engine.node, "jazz")
        engine.append(key, owner="jazz", block_type=BlockType.TAG_RESOURCES,
                      increments={"r1": 1})
        engine.append(key, owner="jazz", block_type=BlockType.TAG_RESOURCES,
                      increments={"r2": 2})
        assert engine.stats.route_hits == 1
        value, _ = engine.retrieve(key)
        assert value["entries"] == {"r1": 1, "r2": 2}

    def test_stale_route_falls_back_to_full_lookup(self, overlay, engine):
        key = remote_key(overlay, engine.node, "metal")
        engine.store(key, {"v": 1})
        route = engine._cached_route(key)
        assert route is not None
        # Kill every cached replica: the route is now useless; the engine must
        # degrade to a full lookup (not crash) and drop the stale entry.
        for contact in route:
            node = overlay.node_by_address(contact.address)
            if node is not None and node is not engine.node:
                overlay.network.unregister(node.address)
        engine.retrieve(key)
        assert engine.stats.route_fallbacks == 1
        assert engine.stats.route_invalidations == 1
        assert engine._cached_route(key) is None

    def test_cached_route_steps_over_a_replica_seen_dead(self, overlay, engine):
        """A cached route is hearsay: once the access node has itself watched
        a replica fail, the route is used without it -- no second timeout."""
        key = remote_key(overlay, engine.node, "punk")
        engine.node.store(key, {"v": 1})
        engine.retrieve(key)
        route = engine._cached_route(key)
        victim = overlay.node_by_address(route[0].address)
        overlay.network.unregister(victim.address)
        assert not engine.node.ping(victim.contact)  # first-hand: one timeout
        failed_before = overlay.network.stats.rpcs_failed_unreachable

        assert victim.node_id not in {c.node_id for c in engine._cached_route(key)}
        value, outcome = engine.retrieve(key)
        assert value == {"v": 1} and outcome.failures == 0
        assert engine.store(key, {"v": 2}).accepted_replicas >= 1
        assert overlay.network.stats.rpcs_failed_unreachable == failed_before

    def test_route_ttl_expiry(self, overlay, engine):
        key = remote_key(overlay, engine.node, "pop")
        engine.store(key, {"v": 1})
        assert engine.cached_routes == 1
        overlay.clock.advance(ROUTE_CACHE_TTL_MS)
        assert engine._cached_route(key) is not None
        overlay.clock.advance(1.0)
        assert engine._cached_route(key) is None

    def test_route_cache_is_lru_bounded(self, overlay, engine):
        replica = overlay.nodes[1].contact
        keys = [NodeID(value) for value in range(1, ROUTE_CACHE_SIZE + 2)]
        for key in keys[:-1]:
            engine._remember_route(key, [replica])
        engine._cached_route(keys[0])  # a use refreshes the oldest route
        engine._remember_route(keys[-1], [replica])
        assert engine.cached_routes == ROUTE_CACHE_SIZE
        assert engine._cached_route(keys[0]) == (replica,)
        assert engine._cached_route(keys[1]) is None


class TestBatchedRetrieval:
    def test_duplicate_keys_resolve_once(self, overlay, engine):
        key = remote_key(overlay, engine.node, "dup")
        engine.node.store(key, {"v": 1})
        results = engine.retrieve_many([key, key, key])
        assert [value for value, _ in results] == [{"v": 1}] * 3
        assert engine.stats.dedup_hits == 2
        assert engine.stats.full_lookups == 1
        # Shared outcomes do not re-charge the lookup's messages.
        assert results[1][1].messages == 0
        assert results[2][1].messages == 0

    def test_batch_preserves_request_order(self, overlay, engine):
        keys = {name: remote_key(overlay, engine.node, name) for name in ("x", "y", "z")}
        for name, key in keys.items():
            engine.node.store(key, {"name": name})
        results = engine.retrieve_many([keys["z"], keys["x"], keys["z"], keys["y"]])
        assert [value["name"] for value, _ in results] == ["z", "x", "z", "y"]

    def test_coalesced_walk_marks_its_bucket(self, overlay, engine):
        """A lookup seeded by its batch neighbour walks the key's bucket like
        any other, so the next refresh pass may skip that bucket."""
        node = engine.node
        hit = remote_key(overlay, node, "coalesce")
        overlay.nodes[5].store(hit, {"v": 1})
        engine.retrieve(hit)  # caches the route
        # Set the lowest clear bit: `near` sorts right after `hit` in the batch
        # and shares its bucket and 12-bit prefix.
        near = NodeID(hit.value | (~hit.value & (hit.value + 1)))
        node.bucket_lookup_at.clear()
        # The route hit on `hit` walks nothing; `near` is seeded from it.
        engine.retrieve_many([hit, near])
        assert engine.stats.route_hits == 1 and engine.stats.seeded_lookups == 1
        bucket = (node.node_id.value ^ near.value).bit_length() - 1
        assert list(node.bucket_lookup_at) == [bucket]

    def test_missing_key_returns_none(self, overlay, engine):
        value, outcome = engine.retrieve(remote_key(overlay, engine.node, "nothing"))
        assert value is None
        assert not outcome.found_value


class TestClientIntegration:
    def test_engine_client_matches_plain_client(self, overlay):
        node = overlay.nodes[0]
        engine = BatchedLookupEngine(node)
        writer = DHTClient(node, engine=engine)
        block = BlockKey.tag_resources("electronica")
        writer.append(block, {"r1": 3})
        writer.append(block, {"r2": 1})

        plain = DHTClient(overlay.nodes[5])
        assert plain.get_entries(block) == {"r1": 3, "r2": 1}
        assert writer.get_entries(block) == {"r1": 3, "r2": 1}
        # Lookup accounting is unchanged: one lookup per application call.
        assert writer.stats.lookups == 3
        assert writer.stats.appends == 2

    def test_get_many_charges_one_lookup_per_key(self, overlay):
        node = overlay.nodes[0]
        client = DHTClient(node, engine=BatchedLookupEngine(node))
        blocks = [BlockKey.tag_resources(n) for n in ("t1", "t2")]
        for block in blocks:
            client.append(block, {"r": 1})
        before = client.stats.lookups
        entries = client.get_entries_many(blocks)
        assert entries == [{"r": 1}, {"r": 1}]
        assert client.stats.lookups == before + 2

    def test_engine_must_wrap_the_same_node(self, overlay):
        engine = BatchedLookupEngine(overlay.nodes[0])
        with pytest.raises(ValueError):
            DHTClient(overlay.nodes[1], engine=engine)
