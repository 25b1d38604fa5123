"""Unit tests for the churn process."""

import pytest

from repro.dht.bootstrap import build_overlay
from repro.dht.node import NodeConfig
from repro.simulation.churn import ChurnConfig, ChurnProcess
from repro.simulation.event_queue import EventQueue
from repro.simulation.network import NetworkConfig


def small_overlay(n=6):
    return build_overlay(
        n,
        node_config=NodeConfig(k=8, alpha=2, replicate=2),
        network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=2, seed=0),
        seed=0,
    )


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ChurnConfig(join_rate=-1)
        with pytest.raises(ValueError):
            ChurnConfig(mean_session_s=0)
        with pytest.raises(ValueError):
            ChurnConfig(crash_probability=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(min_nodes=0)


class TestChurnProcess:
    def test_departures_respect_min_nodes(self):
        overlay = small_overlay(4)
        queue = EventQueue(overlay.clock)
        config = ChurnConfig(join_rate=0.0, mean_session_s=1.0, crash_probability=1.0, min_nodes=3, seed=0)
        process = ChurnProcess(overlay, queue, config)
        process.schedule_trace(60_000.0)
        queue.run_until(overlay.clock.now + 60_000)
        live = sum(1 for n in overlay.nodes if overlay.network.is_registered(n.address))
        assert live == 3
        assert process.crashes == 1  # every later departure was skipped

    def test_joins_grow_the_overlay(self):
        overlay = small_overlay(3)
        queue = EventQueue(overlay.clock)
        config = ChurnConfig(join_rate=1.0, mean_session_s=10_000.0, min_nodes=2, seed=1)
        process = ChurnProcess(overlay, queue, config)
        process.schedule_trace(20_000.0)
        queue.run_until(overlay.clock.now + 20_000)
        assert process.joins >= 1
        assert len(overlay.nodes) == 3 + process.joins

    def test_graceful_and_crash_departures_counted(self):
        overlay = small_overlay(8)
        queue = EventQueue(overlay.clock)
        config = ChurnConfig(join_rate=0.0, mean_session_s=2.0, crash_probability=0.5, min_nodes=2, seed=2)
        process = ChurnProcess(overlay, queue, config)
        process.schedule_trace(120_000.0)
        queue.run_until(overlay.clock.now + 120_000)
        # Six of eight leave before the floor of two stops the rest.
        assert process.graceful_leaves + process.crashes == 6
        assert process.graceful_leaves >= 1 and process.crashes >= 1

    def test_crashed_nodes_are_pruned_from_the_roster(self):
        """Long churn runs must not accumulate dead entries in
        ``Overlay.nodes`` (O(n) scans per event, unbounded growth)."""
        overlay = small_overlay(8)
        queue = EventQueue(overlay.clock)
        config = ChurnConfig(
            join_rate=0.5, mean_session_s=2.0, crash_probability=1.0, min_nodes=2, seed=4
        )
        process = ChurnProcess(overlay, queue, config)
        process.schedule_trace(60_000.0)
        queue.run_until(overlay.clock.now + 60_000)
        assert process.crashes >= 1
        live = [n for n in overlay.nodes if overlay.network.is_registered(n.address)]
        assert len(overlay.nodes) == len(live)

    def test_traced_schedule_is_immune_to_simulation_work(self):
        """schedule_trace pins every membership event to an absolute time, so
        the realised trace does not depend on how much virtual time other
        events consume."""
        def run(busy_work: bool):
            overlay = small_overlay(8)
            queue = EventQueue(overlay.clock)
            config = ChurnConfig(
                join_rate=0.5, mean_session_s=20.0, crash_probability=0.5,
                min_nodes=2, seed=7,
            )
            process = ChurnProcess(overlay, queue, config)
            process.schedule_trace(60_000.0)
            if busy_work:
                # A heavy consumer of virtual time next to the trace.
                for tick in range(1, 30):
                    queue.schedule_at(
                        overlay.clock.now + tick * 2_000.0,
                        lambda: overlay.clock.advance(500.0),
                        label="busy",
                    )
            queue.run_until(overlay.clock.now + 60_000.0)
            return process.joins, process.graceful_leaves, process.crashes

        assert run(busy_work=False) == run(busy_work=True)

    def test_a_joiner_outlived_by_its_join_leaves_at_once(self):
        """A traced joiner whose session ends before its join returns departs
        inside the join event, not at whatever time the queue reaches next --
        otherwise its departure can slip past the run's deadline."""
        overlay = small_overlay(8)
        queue = EventQueue(overlay.clock)
        # Sessions of ~1 us against joins of at least one 2 ms round trip.
        config = ChurnConfig(
            join_rate=0.5, mean_session_s=1e-6, crash_probability=0.5, min_nodes=2, seed=7
        )
        process = ChurnProcess(overlay, queue, config)
        horizon = overlay.clock.now + 60_000.0
        process.schedule_trace(60_000.0)
        joined = []
        overlay.subscribe(on_join=joined.append)
        while (due := queue.peek_time()) is not None and due <= horizon:
            event = queue.step()
            if event.label.startswith("churn-join:"):
                assert not overlay.network.is_registered(joined[-1].address)
        assert process.joins == len(joined) > 0
        assert not [e for e in queue.pending_events() if e.label.startswith("churn-leave:")]

    def test_overlay_survives_churn_for_lookups(self):
        """Data stored before churn is still retrievable afterwards as long as
        departures are graceful."""
        from repro.dht.node_id import NodeID

        overlay = small_overlay(8)
        keys = [NodeID.hash_of(f"key-{i}") for i in range(10)]
        for i, key in enumerate(keys):
            overlay.nodes[i % 8].store(key, f"v{i}")

        queue = EventQueue(overlay.clock)
        config = ChurnConfig(join_rate=0.5, mean_session_s=5.0, crash_probability=0.0, min_nodes=4, seed=3)
        process = ChurnProcess(overlay, queue, config)
        process.schedule_trace(30_000.0)
        queue.run_until(overlay.clock.now + 30_000)
        assert process.graceful_leaves >= 1

        access = overlay.random_node()
        recovered = 0
        for i, key in enumerate(keys):
            value, _ = access.retrieve(key)
            if value == f"v{i}":
                recovered += 1
        assert recovered >= 8  # graceful departures republish
