"""Unit tests for overlay construction and membership management."""

import gc
import weakref

import pytest

from repro.dht.bootstrap import build_overlay
from repro.dht.node import NodeConfig
from repro.dht.node_id import NodeID
from repro.simulation.network import NetworkConfig


class TestBuildOverlay:
    def test_builds_requested_number_of_nodes(self):
        overlay = build_overlay(5, seed=0)
        assert len(overlay) == 5
        assert len(overlay.network.addresses) == 5

    def test_rejects_empty_overlay(self):
        with pytest.raises(ValueError):
            build_overlay(0)

    def test_all_nodes_have_certified_ids(self):
        overlay = build_overlay(4, seed=0)
        for node in overlay.nodes:
            assert overlay.certification.node_id_for(f"peer-{overlay.nodes.index(node):06d}") is not None

    def test_seeded_overlays_are_identical(self):
        a = build_overlay(4, seed=42)
        b = build_overlay(4, seed=42)
        assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]

    def test_a_dropped_overlay_is_freed(self):
        """Nothing process-wide keeps a network (and every node registered
        on it) alive once its overlay is gone."""
        overlay = build_overlay(4, seed=0)
        network = weakref.ref(overlay.network)
        del overlay
        gc.collect()
        assert network() is None

    def test_nodes_know_each_other_after_bootstrap(self):
        overlay = build_overlay(6, seed=1)
        for node in overlay.nodes[1:]:
            assert len(node.routing_table) >= 1


class TestMembership:
    def test_add_node_joins_through_live_peer(self):
        overlay = build_overlay(3, seed=0)
        new_node = overlay.add_node("late-joiner")
        assert len(overlay) == 4
        assert overlay.network.is_registered(new_node.address)
        assert len(new_node.routing_table) >= 1

    def test_remove_node_republishes_data(self):
        overlay = build_overlay(
            4,
            node_config=NodeConfig(k=8, alpha=2, replicate=1),
            network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0),
            seed=0,
        )
        victim = overlay.nodes[1]
        key = NodeID.hash_of("precious")
        victim.storage.put(key, "data")
        overlay.remove_node(victim, republish=True)
        assert not overlay.network.is_registered(victim.address)
        # Data survives somewhere in the overlay.
        survivor_values = [
            node.storage.get(key)
            for node in overlay.nodes
            if overlay.network.is_registered(node.address)
        ]
        assert "data" in [v for v in survivor_values if v is not None]

    def test_random_node_only_returns_live_nodes(self):
        overlay = build_overlay(3, seed=0)
        overlay.nodes[0].leave()
        for _ in range(10):
            assert overlay.random_node().address != overlay.nodes[0].address

    def test_random_node_raises_when_everyone_left(self):
        overlay = build_overlay(2, seed=0)
        for node in overlay.nodes:
            node.leave()
        with pytest.raises(RuntimeError):
            overlay.random_node()

    def test_node_by_address(self):
        overlay = build_overlay(3, seed=0)
        node = overlay.nodes[2]
        assert overlay.node_by_address(node.address) is node
        assert overlay.node_by_address("nope") is None

    def test_storage_load_reports_live_nodes_only(self):
        overlay = build_overlay(3, seed=0)
        overlay.nodes[0].leave()
        load = overlay.storage_load()
        assert overlay.nodes[0].address not in load
        assert len(load) == 2

    def test_remove_node_prunes_the_roster(self):
        overlay = build_overlay(4, seed=0)
        victim = overlay.nodes[1]
        address = victim.address
        overlay.remove_node(victim, republish=False)
        assert victim not in overlay.nodes
        assert overlay.node_by_address(address) is None
        assert len(overlay) == 3

    def test_crash_node_prunes_without_republishing(self):
        overlay = build_overlay(
            4,
            node_config=NodeConfig(k=8, alpha=2, replicate=1),
            network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0),
            seed=0,
        )
        victim = overlay.nodes[1]
        key = NodeID.hash_of("volatile")
        victim.storage.put(key, "data")
        overlay.crash_node(victim)
        assert victim not in overlay.nodes
        assert not overlay.network.is_registered(victim.address)
        # Nothing was republished: the only copy died with the node.
        assert all(node.storage.get(key) is None for node in overlay.nodes)

    def test_membership_listeners_fire(self):
        overlay = build_overlay(3, seed=0)
        joined, left = [], []
        overlay.subscribe(on_join=joined.append, on_leave=left.append)
        node = overlay.add_node("observed")
        assert joined == [node]
        overlay.crash_node(node)
        assert left == [node]
        survivor = overlay.nodes[-1]
        overlay.remove_node(survivor, republish=False)
        assert left == [node, survivor]

    def test_joiners_after_pruning_get_fresh_identities(self):
        """Pruning shrinks ``nodes``; the default peer name must stay
        monotone or a joiner would be re-issued a live node's identity."""
        overlay = build_overlay(5, seed=0)
        overlay.crash_node(overlay.nodes[0])
        joiner = overlay.add_node()
        ids = [node.node_id for node in overlay.nodes]
        assert len(set(ids)) == len(ids)
        assert joiner.node_id in ids

    def test_node_by_address_uses_the_index_after_churning(self):
        overlay = build_overlay(3, seed=0)
        for _ in range(5):
            node = overlay.add_node()
            assert overlay.node_by_address(node.address) is node
            overlay.crash_node(node)
            assert overlay.node_by_address(node.address) is None
        assert len(overlay) == 3

    def test_republish_rotates_helpers(self):
        """The departing node's inventory must not funnel through one peer."""
        overlay = build_overlay(
            6,
            node_config=NodeConfig(k=8, alpha=2, replicate=1),
            network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0),
            seed=0,
        )
        victim = overlay.nodes[0]
        for i in range(8):
            victim.storage.put(NodeID.hash_of(f"item-{i}"), f"v{i}")

        helpers_used = []
        for node in overlay.nodes[1:]:
            original = node.store

            def spy(key, value, identity=None, _node=node, _original=original):
                helpers_used.append(_node.address)
                return _original(key, value, identity)

            node.store = spy
        overlay.remove_node(victim, republish=True)
        assert len(helpers_used) == 8
        assert len(set(helpers_used)) > 1

    def test_republished_counter_blocks_merge_at_destination(self):
        """Republication is a STORE, and STOREs of counter payloads merge:
        a departing node's snapshot cannot roll a replica's counters back."""
        overlay = build_overlay(
            4,
            node_config=NodeConfig(k=8, alpha=2, replicate=1),
            network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0),
            seed=0,
        )
        victim = overlay.nodes[1]
        key = NodeID.hash_of("shared-counter")
        stale = {"owner": "rock", "type": "3", "entries": {"pop": 2}}
        victim.storage.put(key, stale)
        # Every surviving replica already advanced past the snapshot.
        for node in overlay.nodes:
            if node is not victim:
                node.storage.put(
                    key, {"owner": "rock", "type": "3", "entries": {"pop": 6, "jazz": 1}}
                )
        overlay.remove_node(victim, republish=True)
        for node in overlay.nodes:
            block = node.storage.counter_block(key)
            if block is not None:
                assert block.get("pop") >= 6
                assert block.get("jazz") >= 1

    def test_register_user_and_client(self):
        overlay = build_overlay(3, seed=0)
        identity = overlay.register_user("alice")
        client = overlay.client(identity=identity)
        assert client.identity is identity
        # A client can be pinned to a specific node too.
        pinned = overlay.client(node=overlay.nodes[0])
        assert pinned.node is overlay.nodes[0]
