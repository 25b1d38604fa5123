"""Tests for the metrics stream and the cluster-attached recorder."""

import pytest

from repro.metrics import (
    ClusterMetricsRecorder,
    MetricsStream,
    parse_prometheus,
    read_metrics_log,
)
from repro.simulation.cluster import ClusterConfig, SimulatedCluster


class TestMetricsStream:
    def test_emit_computes_deltas_and_sequences(self):
        stream = MetricsStream()
        first = stream.emit(1_000.0, {"net.messages_sent": 10}, {"nodes.live": 4.0})
        second = stream.emit(2_000.0, {"net.messages_sent": 25}, {"nodes.live": 3.0})
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["deltas"] == {"net.messages_sent": 10}
        assert second["deltas"] == {"net.messages_sent": 15}
        assert stream.last is second
        assert len(stream.samples) == 2

    def test_files_are_written_per_emit(self, tmp_path):
        log = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        stream = MetricsStream(path=str(log), prom_path=str(prom))
        stream.emit(500.0, {"a": 1}, {})
        stream.emit(1_500.0, {"a": 3}, {})
        stream.close()
        samples = read_metrics_log(log)
        assert [s["seq"] for s in samples] == [0, 1]
        assert samples == stream.samples
        # The Prometheus file always holds the *latest* sample only.
        parsed = parse_prometheus(prom.read_text(encoding="utf-8"))
        assert parsed["dharma_sample_seq"] == ("gauge", 1.0)
        assert parsed["dharma_a_total"] == ("counter", 3.0)

    def test_state_round_trip_preserves_delta_continuity(self):
        stream = MetricsStream()
        stream.emit(1_000.0, {"a": 10}, {})
        resumed = MetricsStream()
        resumed.restore_state(stream.export_state())
        sample = resumed.emit(2_000.0, {"a": 14}, {})
        assert sample["seq"] == 1
        assert sample["deltas"] == {"a": 4}


@pytest.fixture(scope="module")
def cluster():
    return SimulatedCluster(
        ClusterConfig(
            num_nodes=16, clients=1, bootstrap="fast", maintenance=True,
            republish_interval_ms=10_000.0, refresh_interval_ms=40_000.0, seed=11,
        )
    )


class TestClusterMetricsRecorder:
    def test_interval_must_be_positive(self, cluster):
        with pytest.raises(ValueError):
            ClusterMetricsRecorder(cluster, MetricsStream(), interval_ms=0.0)

    def test_samples_on_virtual_cadence(self, cluster):
        stream = MetricsStream()
        recorder = ClusterMetricsRecorder(cluster, stream, interval_ms=2_000.0)
        start = cluster.queue.clock.now
        recorder.start()
        cluster.run_for(6_500.0)
        recorder.stop()
        assert len(stream.samples) == 3
        assert [s["t_ms"] - start for s in stream.samples] == [2_000.0, 4_000.0, 6_000.0]
        for sample in stream.samples:
            assert sample["gauges"]["nodes.live"] == 16.0
            assert sample["counters"]["queue.events_processed"] >= 0
            for name, value in sample["deltas"].items():
                assert value >= 0, f"counter {name} decreased"

    def test_stop_cancels_future_ticks(self, cluster):
        stream = MetricsStream()
        recorder = ClusterMetricsRecorder(cluster, stream, interval_ms=1_000.0)
        recorder.start()
        cluster.run_for(2_500.0)
        recorder.stop()
        emitted = len(stream.samples)
        cluster.run_for(3_000.0)
        assert len(stream.samples) == emitted

    def test_collect_is_read_only(self, cluster):
        recorder = ClusterMetricsRecorder(cluster, MetricsStream(), interval_ms=1_000.0)
        before = (cluster.queue.processed, len(cluster.queue), cluster.queue.clock.now)
        counters, gauges = recorder.collect()
        assert (cluster.queue.processed, len(cluster.queue), cluster.queue.clock.now) == before
        assert counters == recorder.collect()[0]
        assert "net.messages_sent" in counters
        assert set(gauges) >= {"nodes.live", "queue.pending", "cache.hit_rate"}
        assert any(name.startswith("maint.") for name in counters)

    def test_failure_memory_counters_ride_the_stream(self):
        """A crashed peer shows up as ``perf.dht.suspect_strikes`` /
        ``perf.dht.suspect_skips`` in the very next sample."""
        cluster = SimulatedCluster(
            ClusterConfig(num_nodes=12, clients=1, bootstrap="fast", seed=5)
        )
        stream = MetricsStream()
        recorder = ClusterMetricsRecorder(cluster, stream, interval_ms=1_000.0)
        before, _ = recorder.collect()
        dead = cluster.overlay.nodes[-1]
        cluster.overlay.crash_node(dead)
        witness = cluster.overlay.nodes[0]
        witness.lookup_node(dead.node_id)  # pays the timeout, strikes
        witness.lookup_node(dead.node_id)  # told about it again, skips
        after, _ = recorder.collect()
        assert after["perf.dht.suspect_strikes"] > before.get("perf.dht.suspect_strikes", 0)
        assert after["perf.dht.suspect_skips"] > before.get("perf.dht.suspect_skips", 0)
