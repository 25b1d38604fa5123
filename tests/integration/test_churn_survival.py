"""Churn-survival integration: APPENDs survive crashes and republication.

The scenario the replica-maintenance subsystem exists for: counter blocks are
written through APPENDs, the nodes responsible for them crash, periodic
maintenance restores the data from the surviving replicas, and at no point do
the counters read *lower* than what was written -- even when stale snapshots
are republished around concurrent APPENDs.
"""

from repro.core.blocks import BlockKey, BlockType
from repro.dht.bootstrap import build_overlay
from repro.dht.maintenance import MaintenanceConfig, OverlayMaintenance
from repro.dht.node import NodeConfig
from repro.dht.node_id import NodeID
from repro.simulation.cluster import churn_cluster_config
from repro.simulation.experiment import run_survival_benchmark
from repro.simulation.event_queue import EventQueue
from repro.simulation.network import NetworkConfig
from repro.simulation.workload import TaggingWorkload


def build(n=12, replicate=3):
    return build_overlay(
        n,
        node_config=NodeConfig(k=8, alpha=2, replicate=replicate),
        network_config=NetworkConfig(
            min_latency_ms=0.01, max_latency_ms=0.05, timeout_ms=0.25, seed=0
        ),
        seed=0,
    )


def live_holders(overlay, key):
    return [
        node
        for node in overlay.nodes
        if overlay.network.is_registered(node.address) and key in node.storage
    ]


class TestAppendCrashRestore:
    def test_counts_are_exact_after_crash_and_restore(self):
        overlay = build()
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(
            overlay, queue, MaintenanceConfig(republish_interval_ms=1_000.0, seed=0)
        )
        manager.start()

        key = NodeID.from_bytes(BlockKey.tag_resources("rock").digest())
        writer = overlay.nodes[0]
        writer.append(key, "rock", BlockType.TAG_RESOURCES, {"r1": 2, "r2": 1})
        writer.append(key, "rock", BlockType.TAG_RESOURCES, {"r1": 1})
        expected = {"r1": 3, "r2": 1}

        holders = live_holders(overlay, key)
        assert len(holders) >= 2
        # Crash every responsible replica but one.
        for node in holders[1:]:
            overlay.crash_node(node)
        assert len(live_holders(overlay, key)) == 1

        # A few maintenance periods restore full replication...
        queue.run_until(overlay.clock.now + 5_000.0)
        restored = live_holders(overlay, key)
        assert len(restored) >= writer.config.replicate

        # ...and the counts are exact -- never lower, never inflated.
        for node in restored:
            assert node.storage.counter_block(key).entries == expected
        value, _ = overlay.random_node().retrieve(key)
        assert value["entries"] == expected

    def test_appends_concurrent_with_republish_are_never_lost(self):
        """A stale snapshot republished *after* new APPENDs landed must merge
        around them (the pre-fix behaviour wholesale-replaced the block)."""
        overlay = build()
        queue = EventQueue(overlay.clock)
        manager = OverlayMaintenance(
            overlay, queue, MaintenanceConfig(republish_interval_ms=1_000.0, seed=0)
        )
        manager.start()

        key = NodeID.from_bytes(BlockKey.tag_resources("jazz").digest())
        writer = overlay.nodes[0]
        writer.append(key, "jazz", BlockType.TAG_RESOURCES, {"r1": 2})

        # Interleave APPENDs with maintenance periods: every republish that
        # fires in between carries a snapshot that is stale with respect to
        # the APPENDs landing around it.
        total = 2
        for round_ in range(5):
            queue.run_until(overlay.clock.now + 1_200.0)
            writer.append(key, "jazz", BlockType.TAG_RESOURCES, {"r1": 1, f"n{round_}": 1})
            total += 1
        queue.run_until(overlay.clock.now + 3_000.0)

        value, _ = overlay.random_node().retrieve(key)
        assert value["entries"]["r1"] == total
        for round_ in range(5):
            assert value["entries"][f"n{round_}"] == 1

    def test_survival_benchmark_end_to_end_small(self):
        """run_survival_benchmark wiring: tiny cluster, short churn phase."""
        triples = [
            (f"u{i}", f"r{i % 6}", tag)
            for i, tag in enumerate(
                ["rock", "pop", "jazz", "indie", "rock", "metal", "pop", "rock",
                 "folk", "jazz", "indie", "rock"] * 3
            )
        ]
        workload = TaggingWorkload.from_triples(triples)
        config = churn_cluster_config(
            num_nodes=24,
            maintenance=True,
            mean_session_s=60.0,
            republish_interval_ms=4_000.0,
            refresh_interval_ms=16_000.0,
            min_nodes=10,
            clients=2,
            seed=3,
        )
        report = run_survival_benchmark(
            config, workload, ops=24, duration_s=60.0, sample_every_s=15.0
        )
        assert report.blocks_written > 0
        assert report.counter_blocks > 0
        assert report.samples, "availability was never probed"
        assert report.crashes + report.graceful_leaves > 0
        assert report.churn_appends > 0
        assert report.integrity_violations == 0
        assert report.final_availability >= 0.9
        summary = report.summary()
        assert summary["maintenance"] == 1
        assert 0.0 <= summary["final_availability"] <= 1.0
