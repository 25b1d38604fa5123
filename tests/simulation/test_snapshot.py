"""Cluster snapshot/restore: structure, guards, and deterministic resume.

The headline property (ISSUE 6): a churn survival run checkpointed mid-flight
and resumed from disk must finish with the *identical* report -- same summary
(modulo wall time), same availability samples -- as the same run left
uninterrupted.  The checkpointed run here also streams metrics while the
baseline does not, so the comparison doubles as proof that attaching a
recorder cannot perturb a deterministic run.
"""

import pytest

from repro.analysis.audit import run_audit
from repro.metrics import MetricsStream, read_metrics_log
from repro.simulation.cluster import ClusterConfig, SimulatedCluster, churn_cluster_config
from repro.simulation.experiment import run_survival_benchmark
from repro.simulation.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshot,
    restore_cluster,
    resume_survival_benchmark,
    save_snapshot,
    snapshot_cluster,
)
from repro.simulation.workload import TaggingWorkload

DURATION_S = 40.0
SAMPLE_EVERY_S = 10.0
#: Deliberately unaligned with the probe/append/maintenance cadence.
CHECKPOINT_AT_S = 17.0


def survival_workload() -> TaggingWorkload:
    triples = [
        (f"u{i}", f"r{i % 6}", tag)
        for i, tag in enumerate(
            ["rock", "pop", "jazz", "indie", "rock", "metal", "pop", "rock",
             "folk", "jazz", "indie", "rock"] * 3
        )
    ]
    return TaggingWorkload.from_triples(triples)


def survival_config():
    return churn_cluster_config(
        num_nodes=20,
        maintenance=True,
        mean_session_s=60.0,
        republish_interval_ms=4_000.0,
        refresh_interval_ms=16_000.0,
        min_nodes=10,
        clients=2,
        seed=3,
    )


def summary_without_wall_time(report) -> dict:
    summary = report.summary()
    summary.pop("wall_time_s")
    return summary


# --------------------------------------------------------------------------- #
# snapshot structure
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def quiet_cluster():
    """A small maintenance-only cluster run a few virtual seconds in."""
    cluster = SimulatedCluster(
        ClusterConfig(
            num_nodes=12, clients=1, bootstrap="fast", maintenance=True,
            republish_interval_ms=3_000.0, refresh_interval_ms=9_000.0, seed=21,
        )
    )
    cluster.run_for(5_000.0)
    return cluster


class TestSnapshotStructure:
    def test_header_and_plain_node_records(self, quiet_cluster):
        snapshot = snapshot_cluster(quiet_cluster)
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["clock_ms"] == quiet_cluster.overlay.clock.now
        by_address = {node.address: node for node in quiet_cluster.overlay.nodes}
        assert len(snapshot["nodes"]) == len(by_address)
        for record in snapshot["nodes"]:
            node = by_address[record["address"]]
            assert record["node_id"] == node.node_id.hex()
            assert record["joined"] == node.joined
            exported = [
                [
                    index,
                    [[c.node_id.hex(), c.address] for c in contacts],
                    [[c.node_id.hex(), c.address] for c in cache],
                ]
                for index, contacts, cache in node.routing_table.export_buckets()
            ]
            assert record["buckets"] == exported

    def test_save_load_round_trip(self, quiet_cluster, tmp_path):
        path = tmp_path / "cluster.json"
        written = save_snapshot(path, quiet_cluster)
        assert load_snapshot(path) == written

    def test_restore_then_resnapshot_is_identical(self, quiet_cluster):
        """Restoring and re-snapshotting reproduces the snapshot bit-for-bit."""
        snapshot = snapshot_cluster(quiet_cluster)
        restored, run, recorder = restore_cluster(snapshot)
        assert run is None and recorder is None
        assert snapshot_cluster(restored) == snapshot
        assert restored.overlay.clock.now == quiet_cluster.overlay.clock.now
        assert len(restored.queue) == len(quiet_cluster.queue)

    def test_restore_then_resnapshot_is_identical_with_suspects(self):
        """The identity also holds once nodes remember peers they saw die."""
        cluster = SimulatedCluster(
            ClusterConfig(num_nodes=12, clients=1, bootstrap="fast", seed=21)
        )
        dead = cluster.overlay.nodes[-3:]
        for node in dead:
            cluster.overlay.crash_node(node)
        for node in cluster.overlay.nodes[:4]:
            for corpse in dead:
                node.lookup_node(corpse.node_id)
        snapshot = snapshot_cluster(cluster)
        assert any(record.get("suspects") for record in snapshot["nodes"])
        restored, _, _ = restore_cluster(snapshot)
        assert snapshot_cluster(restored) == snapshot

    def test_empty_node_state_is_written_not_left_out(self, quiet_cluster):
        # No RPC failed on the quiet cluster: the failure memory is still
        # written, as an empty list, so a reader never guesses a default.
        snapshot = snapshot_cluster(quiet_cluster)
        assert all(record["suspects"] == [] for record in snapshot["nodes"])

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-snapshot.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(SnapshotError, match="not a dharma-cluster-snapshot"):
            load_snapshot(path)

    def test_load_rejects_future_versions(self, quiet_cluster, tmp_path):
        path = tmp_path / "future.json"
        snapshot = save_snapshot(path, quiet_cluster)
        snapshot["version"] = SNAPSHOT_VERSION + 1
        import json

        path.write_text(json.dumps(snapshot), encoding="utf-8")
        with pytest.raises(SnapshotError, match="unsupported snapshot version"):
            load_snapshot(path)

    def test_restore_refuses_a_missing_field(self, quiet_cluster):
        snapshot = snapshot_cluster(quiet_cluster)
        del snapshot["nodes"][0]["bucket_lookups"]
        with pytest.raises(KeyError, match="bucket_lookups"):
            restore_cluster(snapshot)

    def test_restore_refuses_config_fields_this_build_lacks(self, quiet_cluster):
        snapshot = snapshot_cluster(quiet_cluster)
        snapshot["config"]["node_k"] = 8
        with pytest.raises(SnapshotError, match="unknown \\['node_k'\\]"):
            restore_cluster(snapshot)
        del snapshot["config"]["node_k"]
        del snapshot["config"]["alpha"]
        with pytest.raises(SnapshotError, match="missing \\['alpha'\\]"):
            restore_cluster(snapshot)


class TestRestorePosture:
    def test_restored_nodes_keep_the_likir_posture(self):
        """Every restored node runs the cluster's node config, Likir
        enforcement included, not just its Kademlia parameters."""
        cluster = SimulatedCluster(
            ClusterConfig(
                num_nodes=12, clients=1, bootstrap="fast", seed=21,
                certified_contacts=True, require_signed_writes=True,
            )
        )
        restored, _, _ = restore_cluster(snapshot_cluster(cluster))
        assert restored.config == cluster.config
        original = {node.address: node.config for node in cluster.overlay.nodes}
        assert {node.address: node.config for node in restored.overlay.nodes} == original
        assert all(config == cluster.config.node_config() for config in original.values())
        assert restored.overlay.network.config == cluster.overlay.network.config
        assert restored.adversary is None


class TestSnapshotGuards:
    def test_unlabelled_pending_event_is_rejected(self):
        cluster = SimulatedCluster(
            ClusterConfig(num_nodes=8, clients=1, bootstrap="fast", seed=4)
        )
        cluster.queue.schedule_in(1_000.0, lambda: None)
        with pytest.raises(SnapshotError, match="without a label"):
            snapshot_cluster(cluster)

    def test_pending_churn_trace_is_restored_verbatim(self):
        config = churn_cluster_config(
            num_nodes=12, maintenance=False, mean_session_s=60.0,
            republish_interval_ms=5_000.0, refresh_interval_ms=20_000.0,
            min_nodes=6, clients=1, seed=4,
        )
        cluster = SimulatedCluster(config)
        cluster.start_churn(trace_horizon_ms=60_000.0)
        restored, _, _ = restore_cluster(snapshot_cluster(cluster))

        def pending(c):
            return [(event.time, event.label) for event in c.queue.pending_events()]

        labels = [label for _, label in pending(cluster)]
        assert any(label.startswith("churn-join:") for label in labels)
        assert any(label.startswith("churn-leave:") for label in labels)
        assert pending(restored) == pending(cluster)


# --------------------------------------------------------------------------- #
# deterministic resume
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def baseline_report():
    """The uninterrupted run, no metrics attached."""
    return run_survival_benchmark(
        survival_config(), survival_workload(),
        ops=30, duration_s=DURATION_S, sample_every_s=SAMPLE_EVERY_S,
    )


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """The same run, metrics on, checkpointed at 17s and halted."""
    root = tmp_path_factory.mktemp("resume")
    checkpoint = root / "checkpoint.json"
    metrics_log = root / "metrics.jsonl"
    stream = MetricsStream(path=str(metrics_log))
    halted = run_survival_benchmark(
        survival_config(), survival_workload(),
        ops=30, duration_s=DURATION_S, sample_every_s=SAMPLE_EVERY_S,
        metrics_stream=stream,
        checkpoint_path=str(checkpoint), checkpoint_at_s=CHECKPOINT_AT_S,
        halt_at_checkpoint=True,
    )
    stream.close()
    assert halted is None, "halt_at_checkpoint must stop before the report"
    return checkpoint, metrics_log


@pytest.fixture(scope="module")
def resumed_report(checkpointed):
    checkpoint, metrics_log = checkpointed
    stream = MetricsStream(path=str(metrics_log))  # append to the same log
    try:
        return resume_survival_benchmark(checkpoint, metrics_stream=stream)
    finally:
        stream.close()


class TestDeterministicResume:
    def test_summary_is_identical(self, baseline_report, resumed_report):
        assert summary_without_wall_time(resumed_report) == summary_without_wall_time(
            baseline_report
        )

    def test_availability_samples_are_identical(self, baseline_report, resumed_report):
        assert resumed_report.samples == baseline_report.samples
        assert resumed_report.samples, "the run never probed availability"

    def test_resumed_run_survived_real_churn(self, resumed_report):
        assert resumed_report.crashes + resumed_report.graceful_leaves > 0
        assert resumed_report.blocks_written > 0
        assert resumed_report.integrity_violations == 0

    def test_checkpoint_has_suspects_and_restores_them_verbatim(self, checkpointed):
        """The 17 s checkpoint falls after crashes, so nodes remember dead
        peers; that memory must survive restore -> re-snapshot unchanged (the
        identical resumed report above depends on it)."""
        checkpoint, _ = checkpointed
        snapshot = load_snapshot(checkpoint)
        rows = [row for record in snapshot["nodes"] for row in record["suspects"]]
        assert rows, "no node had a suspect at the checkpoint"
        assert all(strikes >= 1 and until > 0 for _, strikes, until in rows)
        restored, run, _ = restore_cluster(snapshot)
        assert sum(len(n.export_suspects()) for n in restored.overlay.nodes) == len(rows)
        assert snapshot_cluster(restored, benchmark=run)["nodes"] == snapshot["nodes"]

    def test_checkpoint_carries_the_maintenance_skip_state(self, checkpointed):
        """The two skip rules steer the next passes, so their clocks travel
        with the checkpoint: records dominated by a remote STORE, per-node
        bucket lookup times and each loop's previous-pass time."""
        checkpoint, _ = checkpointed
        snapshot = load_snapshot(checkpoint)
        nodes = snapshot["nodes"]
        assert any(
            item["dominated_at"] is not None for record in nodes for item in record["storage"]
        )
        assert any(record["bucket_lookups"] for record in nodes)
        loops = snapshot["maintenance"]["nodes"].values()
        assert loops and all(set(loop["last_at"]) == {"republish", "refresh"} for loop in loops)
        restored, run, _ = restore_cluster(snapshot)
        assert snapshot_cluster(restored, benchmark=run)["maintenance"] == snapshot["maintenance"]

    def test_checkpoint_passes_audit(self, checkpointed):
        checkpoint, _ = checkpointed
        report = run_audit(snapshot=checkpoint)
        assert report.errors == []
        assert report.checked["nodes"] > 0 and report.checked["block keys"] > 0

    def test_metrics_log_is_contiguous_across_the_checkpoint(self, checkpointed,
                                                            resumed_report):
        _, metrics_log = checkpointed
        samples = read_metrics_log(metrics_log)
        assert [s["seq"] for s in samples] == list(range(len(samples)))
        assert len(samples) >= 3
        assert run_audit(metrics=metrics_log).findings == []
