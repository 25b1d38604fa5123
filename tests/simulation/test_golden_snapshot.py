"""The checked-in snapshot fixture restores, re-snapshots and resumes exactly.

``fixtures/golden_snapshot.json`` checkpoints a 24-node churn survival run
(maintenance on, seed 0, the ``tiny`` synthetic preset, 15 ops) 9 virtual
seconds into its 20 s churn phase; ``fixtures/golden_resume.json`` is the
report that checkpoint produces when resumed to completion.  Both files are
written by one command, run from the repository root::

    PYTHONPATH=src python tests/simulation/test_golden_snapshot.py

Re-record them only on purpose -- when a change is meant to move what a
node does after the checkpoint, or changes the snapshot format -- and say
in ``CHANGES.md`` what moved.  Pinned here:

* restoring the fixture and snapshotting the restored cluster reproduces
  the file's JSON exactly (format, LRU order, replacement caches, failure
  memory, skip-rule state, credentials, pending events);
* resuming it reproduces the recorded report bit-for-bit: virtual clock,
  message counts, maintenance stats, availability samples;
* a file of the previous snapshot version is refused by name;
* every field is read strictly: dropping any one makes restore fail.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.audit import run_audit
from repro.simulation.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshot,
    restore_cluster,
    resume_survival_benchmark,
    snapshot_cluster,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SNAPSHOT = FIXTURES / "golden_snapshot.json"
GOLDEN_RESUME = FIXTURES / "golden_resume.json"


def summary_of(report) -> dict:
    summary = report.summary()
    summary.pop("wall_time_s")
    return summary


def record() -> None:
    """Run the pinned survival run to its checkpoint, then resume it, and
    write both fixtures."""
    from repro.datasets.lastfm_synthetic import generate_lastfm_like
    from repro.simulation.cluster import churn_cluster_config
    from repro.simulation.experiment import run_survival_benchmark
    from repro.simulation.workload import TaggingWorkload

    config = churn_cluster_config(
        num_nodes=24,
        maintenance=True,
        mean_session_s=30.0,
        republish_interval_ms=3_000.0,
        refresh_interval_ms=12_000.0,
        seed=0,
    )
    workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
    FIXTURES.mkdir(exist_ok=True)
    run_survival_benchmark(
        config, workload, ops=15, duration_s=20.0, sample_every_s=5.0,
        checkpoint_path=str(GOLDEN_SNAPSHOT), checkpoint_at_s=9.0, halt_at_checkpoint=True,
    )
    report = resume_survival_benchmark(GOLDEN_SNAPSHOT)
    recorded = {**summary_of(report), "samples": report.samples}
    GOLDEN_RESUME.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_SNAPSHOT.read_text(encoding="utf-8"))


class TestGoldenSnapshot:
    def test_restore_then_resnapshot_reproduces_the_file(self, golden):
        cluster, run, _ = restore_cluster(load_snapshot(GOLDEN_SNAPSHOT))
        assert snapshot_cluster(cluster, benchmark=run) == golden

    def test_fixture_exercises_every_node_field(self, golden):
        # Guard against a hollowed-out fixture: the round trip above must
        # cover real contacts, replacement caches, failure memory, the
        # skip-rule clocks and signed values.
        nodes = golden["nodes"]
        assert golden["version"] == SNAPSHOT_VERSION
        assert sum(len(contacts) for n in nodes for _, contacts, _ in n["buckets"]) > 100
        assert any(cache for n in nodes for _, _, cache in n["buckets"])
        assert any(n["suspects"] for n in nodes)
        assert any(n["bucket_lookups"] for n in nodes)
        items = [item for n in nodes for item in n["storage"]]
        assert any(item["dominated_at"] is not None for item in items)
        assert any(item["value"]["kind"] == "signed" for item in items)

    def test_fixture_passes_audit(self):
        report = run_audit(snapshot=GOLDEN_SNAPSHOT)
        assert report.errors == []
        assert report.checked["nodes"] > 0 and report.checked["block keys"] > 0

    def test_a_version_1_file_is_refused_by_version(self, golden, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({**golden, "version": 1}), encoding="utf-8")
        with pytest.raises(SnapshotError, match="unsupported snapshot version 1 "):
            load_snapshot(path)


#: Every field a snapshot writes, by level.  ``format`` and ``version`` are
#: checked by ``load_snapshot`` and are not read again on restore.
HEADER_FIELDS = (
    "clock_ms", "config", "address_floor", "certified_users", "network", "overlay",
    "cluster", "nodes", "churn", "maintenance", "queue", "perf", "benchmark", "recorder",
)
NODE_FIELDS = (
    "user", "node_id", "address", "joined", "rpcs_served", "buckets", "storage",
    "suspects", "bucket_lookups",
)
STORED_FIELDS = ("key", "value", "stored_at", "writes", "reads", "dominated_at")
LOOP_FIELDS = ("rng", "next_at", "last_at", "running")


class TestStrictReading:
    """No field has a default: dropping any one of them from the fixture
    makes restore raise a ``KeyError`` that names it."""

    def test_field_lists_name_every_written_field(self, golden):
        assert set(golden) - {"format", "version"} == set(HEADER_FIELDS)
        assert all(set(node) == set(NODE_FIELDS) for node in golden["nodes"])
        items = [item for node in golden["nodes"] for item in node["storage"]]
        assert items and all(set(item) == set(STORED_FIELDS) for item in items)
        loops = golden["maintenance"]["nodes"].values()
        assert loops and all(set(loop) == set(LOOP_FIELDS) for loop in loops)

    @staticmethod
    def refuses_without(snapshot: dict, record: dict, field: str) -> None:
        del record[field]
        with pytest.raises(KeyError, match=f"'{field}'"):
            restore_cluster(snapshot)

    @pytest.mark.parametrize("field", HEADER_FIELDS)
    def test_every_header_field_is_required(self, golden, field):
        snapshot = copy.deepcopy(golden)
        self.refuses_without(snapshot, snapshot, field)

    @pytest.mark.parametrize("field", NODE_FIELDS)
    def test_every_node_field_is_required(self, golden, field):
        snapshot = copy.deepcopy(golden)
        self.refuses_without(snapshot, snapshot["nodes"][0], field)

    @pytest.mark.parametrize("field", STORED_FIELDS)
    def test_every_stored_record_field_is_required(self, golden, field):
        snapshot = copy.deepcopy(golden)
        item = next(item for node in snapshot["nodes"] for item in node["storage"])
        self.refuses_without(snapshot, item, field)

    @pytest.mark.parametrize("field", LOOP_FIELDS)
    def test_every_maintenance_loop_field_is_required(self, golden, field):
        snapshot = copy.deepcopy(golden)
        loop = next(iter(snapshot["maintenance"]["nodes"].values()))
        self.refuses_without(snapshot, loop, field)


class TestGoldenResume:
    def test_resume_reproduces_the_recorded_report(self):
        expected = json.loads(GOLDEN_RESUME.read_text())
        expected_samples = [tuple(sample) for sample in expected.pop("samples")]

        report = resume_survival_benchmark(GOLDEN_SNAPSHOT)

        assert summary_of(report) == expected
        assert report.samples == expected_samples


if __name__ == "__main__":
    record()
