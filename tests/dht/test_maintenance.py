"""Unit tests for the replica-maintenance subsystem."""

import random

import pytest

from repro.dht.bootstrap import build_overlay
from repro.dht.maintenance import MaintenanceConfig, NodeMaintenance, OverlayMaintenance
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.node_id import NodeID
from repro.perf import PERF
from repro.simulation.cluster import SimulatedCluster, churn_cluster_config
from repro.simulation.event_queue import EventQueue
from repro.simulation.network import NetworkConfig
from repro.simulation.workload import TaggingWorkload


def small_overlay(n=8, replicate=2):
    return build_overlay(
        n,
        node_config=NodeConfig(k=8, alpha=2, replicate=replicate),
        network_config=NetworkConfig(
            min_latency_ms=0.01, max_latency_ms=0.05, timeout_ms=0.25, seed=0
        ),
        seed=0,
    )


def holders(overlay, key):
    return [
        node
        for node in overlay.nodes
        if overlay.network.is_registered(node.address) and key in node.storage
    ]


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            MaintenanceConfig(republish_interval_ms=-1)
        with pytest.raises(ValueError):
            MaintenanceConfig(refresh_interval_ms=-1)
        with pytest.raises(ValueError):
            MaintenanceConfig(jitter=1.5)


class TestNodeMaintenance:
    def test_start_schedules_and_stop_cancels_timers(self):
        overlay = small_overlay(4)
        queue = EventQueue(overlay.clock)
        maintenance = NodeMaintenance(
            overlay.nodes[0], queue, MaintenanceConfig(jitter=0.0)
        )
        maintenance.start()
        assert len(queue) == 2  # one republish + one refresh timer
        maintenance.stop()
        assert len(queue) == 0
        assert maintenance.stats.timers_cancelled == 2

    def test_cancelled_timers_feed_lazy_compaction(self):
        """Mass departures cancel timers en masse; the queue compacts them."""
        overlay = small_overlay(6)
        queue = EventQueue(overlay.clock, compaction_threshold=4)
        loops = [
            NodeMaintenance(node, queue, MaintenanceConfig(jitter=0.0))
            for node in overlay.nodes
        ]
        for loop in loops:
            loop.start()
        assert queue.heap_size() == 12
        for loop in loops:
            loop.stop()
        assert len(queue) == 0
        assert queue.compactions >= 1
        assert queue.heap_size() < 12

    def test_republish_restores_crashed_replicas(self):
        """The core churn-safety property: after the responsible replicas
        crash, a surviving holder's periodic republish restores the data."""
        overlay = small_overlay(10, replicate=3)
        queue = EventQueue(overlay.clock)
        key = NodeID.hash_of("precious-block")
        overlay.nodes[0].store(key, "payload")
        before = holders(overlay, key)
        assert len(before) >= 2

        survivor = before[0]
        for node in before[1:]:
            overlay.crash_node(node)
        assert holders(overlay, key) == [survivor]

        maintenance = NodeMaintenance(
            survivor, queue, MaintenanceConfig(republish_interval_ms=1_000.0, jitter=0.0)
        )
        maintenance.start()
        queue.run_until(overlay.clock.now + 5_000.0)

        restored = holders(overlay, key)
        assert len(restored) >= survivor.config.replicate
        value, _ = overlay.random_node().retrieve(key)
        assert value == "payload"
        assert maintenance.stats.republish_runs >= 1
        assert maintenance.stats.blocks_republished >= 1

    def test_republish_hands_off_keys_the_node_is_not_responsible_for(self):
        """A holder that drifted out of the key's k-closest neighbourhood
        drops its copy once the data sits on a full replica set, so the
        per-key holder set (and the republish bill) stays bounded under
        churn."""
        overlay = build_overlay(
            20,
            node_config=NodeConfig(k=4, alpha=2, replicate=2),
            network_config=NetworkConfig(
                min_latency_ms=0.01, max_latency_ms=0.05, timeout_ms=0.25, seed=0
            ),
            seed=0,
        )
        queue = EventQueue(overlay.clock)
        key = NodeID.hash_of("wandering-block")
        overlay.nodes[0].store(key, "payload")

        # Plant a copy on the node farthest from the key: certainly outside
        # the k-closest neighbourhood.
        outsider = max(overlay.nodes, key=lambda n: n.node_id.value ^ key.value)
        assert key not in outsider.storage
        outsider.storage.put(key, "payload")

        maintenance = NodeMaintenance(
            outsider, queue, MaintenanceConfig(republish_interval_ms=1_000.0, jitter=0.0)
        )
        maintenance.start()
        queue.run_until(overlay.clock.now + 2_500.0)

        assert key not in outsider.storage
        assert maintenance.stats.blocks_handed_off == 1
        value, _ = overlay.random_node().retrieve(key)
        assert value == "payload"

    def test_refresh_tick_skips_buckets_a_lookup_walked(self):
        overlay = small_overlay(8)
        queue = EventQueue(overlay.clock)
        node = overlay.nodes[0]
        maintenance = NodeMaintenance(
            node,
            queue,
            MaintenanceConfig(republish_interval_ms=0.0, refresh_interval_ms=1_000.0, jitter=0.0),
        )
        maintenance.start()
        overlay.clock.advance(1.0)
        walked = next(i for i, size in node.routing_table.bucket_utilisation().items() if size)
        node.lookup_node(NodeID(node.node_id.value ^ (1 << walked)))
        queue.run_until(overlay.clock.now + 1_500.0)
        assert maintenance.stats.refresh_runs == 1
        assert maintenance.stats.buckets_skipped == 1
        assert maintenance.stats.buckets_refreshed >= 1

    def test_every_refresh_pass_accounts_for_every_non_empty_bucket(self):
        """refreshed + skipped is the pass's non-empty bucket count, with
        skipped meaning walked by an earlier lookup -- never covered by the
        neighbourhood self-lookup."""
        overlay = small_overlay(24)
        queue = EventQueue(overlay.clock)
        node = overlay.nodes[0]
        maintenance = NodeMaintenance(
            node,
            queue,
            MaintenanceConfig(republish_interval_ms=0.0, refresh_interval_ms=1_000.0, jitter=0.0),
        )
        passes = []  # (non-empty buckets, PERF skips, refreshed, skipped) at each start
        refresh_buckets = node.refresh_buckets

        def observed(rng, since):
            passes.append(counters(len(node.routing_table.bucket_utilisation())))
            return refresh_buckets(rng, since=since)

        def counters(buckets):
            stats = maintenance.stats
            skips = PERF.counters.get("maint.refresh_skips", 0)
            return buckets, skips, stats.buckets_refreshed, stats.buckets_skipped

        node.refresh_buckets = observed
        maintenance.start()
        rng = random.Random(1)
        for _ in range(4):
            node.lookup_node(NodeID(rng.getrandbits(160)))
            queue.run_until(overlay.clock.now + 1_000.0)
        passes.append(counters(None))
        assert len(passes) >= 4
        for start, end in zip(passes, passes[1:]):
            refreshed, skipped = end[2] - start[2], end[3] - start[3]
            assert refreshed + skipped == start[0]
            assert skipped == end[1] - start[1]
        assert maintenance.stats.buckets_skipped > 0

    def test_tick_on_a_dead_node_stops_its_loops(self):
        overlay = small_overlay(4)
        queue = EventQueue(overlay.clock)
        node = overlay.nodes[1]
        maintenance = NodeMaintenance(
            node, queue, MaintenanceConfig(republish_interval_ms=500.0, jitter=0.0)
        )
        maintenance.start()
        node.leave()  # dies without going through the overlay
        queue.run_until(overlay.clock.now + 5_000.0)
        assert not maintenance.running
        assert len(queue) == 0  # nothing rescheduled from beyond the grave

    def test_refresh_tick_refreshes_buckets(self):
        overlay = small_overlay(6)
        queue = EventQueue(overlay.clock)
        maintenance = NodeMaintenance(
            overlay.nodes[0],
            queue,
            MaintenanceConfig(
                republish_interval_ms=0.0, refresh_interval_ms=1_000.0, jitter=0.0
            ),
        )
        maintenance.start()
        queue.run_until(overlay.clock.now + 2_500.0)
        assert maintenance.stats.refresh_runs >= 2
        assert maintenance.stats.buckets_refreshed >= 1


class TestOverlayMaintenance:
    def test_start_attaches_every_live_node(self):
        overlay = small_overlay(5)
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(overlay, queue, MaintenanceConfig(jitter=0.0))
        manager.start()
        assert len(manager) == 5
        assert len(queue) == 10

    def test_joiners_attach_and_leavers_detach(self):
        overlay = small_overlay(4)
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(overlay, queue, MaintenanceConfig(jitter=0.0))
        manager.start()

        joiner = overlay.add_node("late-joiner")
        assert len(manager) == 5

        overlay.crash_node(joiner)
        assert len(manager) == 4
        overlay.remove_node(overlay.nodes[0], republish=False)
        assert len(manager) == 3
        assert manager.stats.timers_cancelled == 4

    def test_stop_cancels_everything(self):
        overlay = small_overlay(4)
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(overlay, queue, MaintenanceConfig(jitter=0.0))
        manager.start()
        manager.stop()
        assert len(manager) == 0
        assert len(queue) == 0

    def test_membership_before_start_is_ignored(self):
        overlay = small_overlay(3)
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(overlay, queue, MaintenanceConfig(jitter=0.0))
        overlay.add_node("early-joiner")
        assert len(manager) == 0
        assert len(queue) == 0


    def test_every_refresh_pass_of_a_churn_run_accounts_for_its_buckets(self, monkeypatch):
        """Per pass, refreshed + skipped is the non-empty bucket count at its
        start and pinged is part of refreshed; each agrees with its PERF
        counter, and the fleet's stats are the sum of the passes."""
        passes = []  # (non-empty buckets, RefreshPass, PERF pings, PERF skips)
        refresh_buckets = KademliaNode.refresh_buckets

        def observed(node, rng=None, since=float("-inf")):
            buckets = len(node.routing_table.bucket_utilisation())
            before = [PERF.counters.get(f"maint.refresh_{c}", 0) for c in ("pings", "skips")]
            outcome = refresh_buckets(node, rng, since=since)
            after = [PERF.counters.get(f"maint.refresh_{c}", 0) for c in ("pings", "skips")]
            passes.append((buckets, outcome, after[0] - before[0], after[1] - before[1]))
            return outcome

        monkeypatch.setattr(KademliaNode, "refresh_buckets", observed)
        cluster = SimulatedCluster(churn_cluster_config(
            num_nodes=64, maintenance=True, mean_session_s=30.0,
            republish_interval_ms=4_000.0, refresh_interval_ms=4_000.0, seed=5,
        ))
        # Data to republish: republish lookups walk buckets, so passes skip.
        triples = [(f"u{i}", f"r{i % 5}", f"t{i % 7}") for i in range(30)]
        cluster.run_workload(TaggingWorkload.from_triples(triples), ignore_errors=False)
        cluster.start_churn(trace_horizon_ms=20_000.0)
        cluster.run_for(20_000.0)

        assert cluster.churn.crashes > 0
        for buckets, outcome, pings, skips in passes:
            assert outcome.buckets == buckets
            assert outcome.refreshed + outcome.skipped == buckets
            assert 0 <= outcome.pinged <= outcome.refreshed
            assert (pings, skips) == (outcome.pinged, outcome.skipped)
        stats = cluster.maintenance.stats
        assert stats.refresh_runs == len(passes)
        assert stats.buckets_refreshed == sum(p[1].refreshed for p in passes)
        assert stats.buckets_pinged == sum(p[1].pinged for p in passes) > 0
        assert stats.buckets_skipped == sum(p[1].skipped for p in passes) > 0
        assert stats.buckets_refreshed + stats.buckets_skipped == sum(p[0] for p in passes)
        assert any(p[1].refreshed > p[1].pinged for p in passes)  # some walked


def counter(**entries):
    return {"owner": "rock", "type": "3", "entries": entries}


class TestRepublishSkip:
    """Kademlia §2.5: a replica a peer just re-stored skips its republish --
    but only when the peer's copy dominated what the replica holds."""

    KEY = NodeID.hash_of("skippable-block")

    @staticmethod
    def setup(resident):
        """A stored block, one holder with *resident* entries running its
        republish loop, and another node that can STORE to it."""
        overlay = small_overlay(8, replicate=3)
        queue = EventQueue(overlay.clock)
        key = TestRepublishSkip.KEY
        overlay.nodes[0].store(key, counter(pop=5))
        holder = holders(overlay, key)[0]
        holder.storage.put(key, resident)
        peer = next(node for node in overlay.nodes if node is not holder)
        maintenance = NodeMaintenance(
            holder,
            queue,
            MaintenanceConfig(
                republish_interval_ms=1_000.0, refresh_interval_ms=0.0, jitter=0.0
            ),
        )
        maintenance.start()
        overlay.clock.advance(1.0)
        return overlay, queue, holder, peer, maintenance

    def test_a_dominating_store_skips_the_next_pass_only(self):
        overlay, queue, holder, peer, maintenance = self.setup(counter(pop=5))
        peer.store_at([holder.contact], self.KEY, counter(pop=5, jazz=1))
        assert holder.storage.records_snapshot()[self.KEY].dominated_at is not None

        queue.run_until(overlay.clock.now + 1_500.0)
        assert maintenance.stats.republish_runs == 1
        assert maintenance.stats.blocks_skipped == 1
        assert maintenance.stats.blocks_republished == 0

        queue.run_until(overlay.clock.now + 1_000.0)
        assert maintenance.stats.republish_runs == 2
        assert maintenance.stats.blocks_skipped == 1
        assert maintenance.stats.blocks_republished == 1

    def test_a_store_lacking_a_resident_entry_does_not_skip_and_replicas_converge(self):
        overlay, queue, holder, peer, maintenance = self.setup(counter(pop=5, jazz=2))
        peer.store_at([holder.contact], self.KEY, counter(pop=6))
        assert holder.storage.get(self.KEY)["entries"] == {"pop": 6, "jazz": 2}

        queue.run_until(overlay.clock.now + 1_500.0)
        assert maintenance.stats.blocks_skipped == 0
        assert maintenance.stats.blocks_republished == 1
        for node in holders(overlay, self.KEY):
            assert node.storage.get(self.KEY)["entries"] == {"pop": 6, "jazz": 2}

    def test_a_stale_snapshot_never_suppresses_a_republish(self):
        """The adversary's stale-republish storm: old counts, sent often."""
        overlay, queue, holder, peer, maintenance = self.setup(counter(pop=5, jazz=2))
        for _ in range(3):
            peer.store_at([holder.contact], self.KEY, counter(pop=3, jazz=2))
            overlay.clock.advance(100.0)
        assert holder.storage.records_snapshot()[self.KEY].dominated_at is None

        queue.run_until(overlay.clock.now + 1_000.0)
        assert maintenance.stats.blocks_skipped == 0
        assert maintenance.stats.blocks_republished == 1
        assert holder.storage.get(self.KEY)["entries"] == {"pop": 5, "jazz": 2}

    def test_a_drifted_holder_still_hands_off(self):
        """A STORE that lands on a holder outside the key's neighbourhood
        delays its hand-off by one pass, never cancels it."""
        overlay = build_overlay(
            20,
            node_config=NodeConfig(k=4, alpha=2, replicate=2),
            network_config=NetworkConfig(
                min_latency_ms=0.01, max_latency_ms=0.05, timeout_ms=0.25, seed=0
            ),
            seed=0,
        )
        queue = EventQueue(overlay.clock)
        key = NodeID.hash_of("wandering-block")
        overlay.nodes[0].store(key, "payload")
        outsider = max(overlay.nodes, key=lambda n: n.node_id.value ^ key.value)
        maintenance = NodeMaintenance(
            outsider, queue, MaintenanceConfig(republish_interval_ms=1_000.0, jitter=0.0)
        )
        maintenance.start()
        overlay.clock.advance(1.0)
        overlay.nodes[0].store_at([outsider.contact], key, "payload")

        queue.run_until(overlay.clock.now + 1_500.0)
        assert key in outsider.storage
        assert maintenance.stats.blocks_skipped == 1

        queue.run_until(overlay.clock.now + 1_000.0)
        assert key not in outsider.storage
        assert maintenance.stats.blocks_handed_off == 1
        value, _ = overlay.random_node().retrieve(key)
        assert value == "payload"
