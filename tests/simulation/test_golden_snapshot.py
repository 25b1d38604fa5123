"""Snapshots written before the compact DHT core restore into it verbatim.

``tests/simulation/fixtures/golden_pre_compact_snapshot.json`` was captured by
the *legacy* ``RoutingTable``/eager-bucket implementation, checkpointing a
24-node churn survival run at t=9s; ``golden_pre_compact_resume.json`` holds
the report that run produced when resumed to completion under that same
implementation.  The snapshot is frozen: regenerating it with current code
would defeat its purpose.  The resume report pins node *behaviour* after the
checkpoint as well, so it was re-recorded once -- by resuming the frozen
snapshot under the legacy table -- when nodes began to remember peers they
watched fail (ISSUE 14; four nodes crash after t=9s: 18,473 -> 18,278
messages, availability 1.0 throughout on both sides), and a second time, the
same way, when ``lookup_node`` stopped pinging on behalf of contacts that had
just answered it (18,278 -> 18,053 messages, clock 20.16246 -> 20.16344 s,
every other field and every availability sample unchanged), and a third
time, the same way, when maintenance took up Kademlia's two skip rules
(18,053 -> 12,612 messages; 632 -> 393 blocks republished with 238 skipped,
130 -> 98 buckets refreshed with 38 skipped; availability 1.0 at every
probe on both sides), and a fourth time, by resuming the frozen snapshot
under the compact table, when bucket refresh began covering a node's
neighbourhood with one self-lookup (12,612 -> 12,099 messages; 98 -> 96
buckets refreshed with 38 -> 34 skipped over 26 -> 25 refresh passes;
393 -> 391 blocks republished with 238 -> 233 skipped; clock 20.16323 ->
20.16256 s; availability 1.0 at every probe on both sides), and a fifth
time, the same way, when a full far bucket whose least-recently-seen contact
answers one PING stopped being walked (12,099 -> 11,752 messages; 96 -> 92
buckets refreshed, 18 of them by PING, with 34 -> 33 skipped over 25 -> 24
refresh passes; 391 -> 389 blocks republished with 233 -> 231 skipped;
1,173 -> 1,167 replicas written; clock 20.16256 -> 20.16524 s; the last
three sample times moved, availability 1.0 at every probe on both sides).
The frozen snapshot carries none of the skip-rule state, which reads as
"never": its first passes after t=9s skip nothing.

Two compatibility properties are pinned here:

* every per-node codec tag ``0x11`` routing record in the golden snapshot
  restores into a :class:`CompactRoutingTable` and re-exports -- LRU order,
  replacement caches and all -- to the byte-identical record, and
* resuming the golden snapshot under today's default (compact) implementation
  reproduces the legacy resume report bit-for-bit: virtual clock, message
  counts, maintenance stats, availability samples.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.codec import decode_routing_table, encode_routing_table
from repro.dht.node_id import NodeID
from repro.dht.routing_table import CompactRoutingTable, Contact
from repro.simulation.snapshot import (
    SnapshotError,
    load_snapshot,
    restore_cluster,
    resume_survival_benchmark,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SNAPSHOT = FIXTURES / "golden_pre_compact_snapshot.json"
GOLDEN_RESUME = FIXTURES / "golden_pre_compact_resume.json"


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return load_snapshot(GOLDEN_SNAPSHOT)


class TestRoutingRecordCompatibility:
    def test_every_golden_routing_record_round_trips_through_compact(self, snapshot):
        checked = 0
        for record in snapshot["nodes"]:
            raw = bytes.fromhex(record["routing"])
            owner_bytes, k, buckets = decode_routing_table(raw)
            table = CompactRoutingTable(NodeID.from_bytes(owner_bytes), k=k)
            table.restore_buckets(
                [
                    (
                        index,
                        [Contact(NodeID.from_bytes(nid), addr) for nid, addr in contacts],
                        [Contact(NodeID.from_bytes(nid), addr) for nid, addr in repl],
                    )
                    for index, contacts, repl in buckets
                ]
            )
            re_encoded = encode_routing_table(
                owner_bytes,
                k,
                [
                    (
                        index,
                        [(c.node_id.to_bytes(), c.address) for c in contacts],
                        [(c.node_id.to_bytes(), c.address) for c in repl],
                    )
                    for index, contacts, repl in table.export_buckets()
                ],
            )
            assert re_encoded.hex() == record["routing"], (
                f"routing record of {record['address']} did not survive the "
                "legacy -> compact -> codec round trip"
            )
            checked += 1
        assert checked > 0

    def test_golden_records_are_nontrivial(self, snapshot):
        # Guard against a hollowed-out fixture: the pinned round trip above
        # must be exercising real contacts and live replacement caches.
        total_contacts = 0
        total_replacements = 0
        for record in snapshot["nodes"]:
            _, _, buckets = decode_routing_table(bytes.fromhex(record["routing"]))
            total_contacts += sum(len(contacts) for _, contacts, _ in buckets)
            total_replacements += sum(len(repl) for _, _, repl in buckets)
        assert total_contacts > 100
        assert total_replacements > 0


class TestGoldenResume:
    def test_resume_under_compact_matches_legacy_report(self):
        expected = json.loads(GOLDEN_RESUME.read_text())
        expected_samples = [tuple(sample) for sample in expected.pop("samples")]

        report = resume_survival_benchmark(GOLDEN_SNAPSHOT)

        summary = report.summary()
        summary.pop("wall_time_s")
        assert summary == expected
        assert report.samples == expected_samples


class TestRetiredOptions:
    """The golden snapshot's config still names options that are constants
    now (``node_k``, ``cache_capacity``, ...): at the constant's value they
    restore, at any other they are refused by name."""

    def test_golden_config_restores(self):
        cluster, _, _ = restore_cluster(load_snapshot(GOLDEN_SNAPSHOT))
        assert all(node.routing_table.k == 8 for node in cluster.overlay.nodes)

    def test_a_retired_option_off_its_constant_is_refused(self):
        snapshot = load_snapshot(GOLDEN_SNAPSHOT)
        snapshot["config"]["node_k"] = 16
        with pytest.raises(SnapshotError, match="node_k=16"):
            restore_cluster(snapshot)
