"""The simulated transport is bit-for-bit the pre-seam network.

The transport refactor's core promise is that every experiment, benchmark
trajectory and published number survives unchanged: speaking to the
``SimulatedNetwork`` through the :class:`~repro.net.base.Transport` seam must
not perturb the virtual clock, the RNG draw order or any counter.  This test
replays a fixed mixed workload (stores, appends, retrieves over a lossy
25-node overlay) and asserts the exact clock position, message counters and
retrieved values captured on the pre-refactor code.

If this test fails the seam is *leaking* -- an extra RNG draw, a re-ordered
latency charge -- and every BENCH_*.json trajectory is silently invalidated.
"""

from __future__ import annotations

import pytest

from repro.core.blocks import BlockType
from repro.dht.bootstrap import build_overlay
from repro.dht.node_id import NodeID
from repro.simulation.network import NetworkConfig

# Captured by running this exact workload on the pre-seam implementation
# (commit before the repro.net package existed).
EXPECTED_CLOCK = 117359.62492324783
EXPECTED_SENT = 1382
EXPECTED_DELIVERED = 1306
EXPECTED_DROPPED = 76
EXPECTED_UNREACHABLE = 0
EXPECTED_VALUES = [
    {"a": 1, "b": 2},
    {"a": 2, "b": 2},
    {"a": 3, "b": 2},
    {"a": 4, "b": 2},
    {"b": 2},
    {"a": 6, "b": 2},
    {"a": 7, "b": 2},
    {"a": 8, "b": 2},
    {"b": 2},
    {"b": 2},
]


@pytest.fixture
def overlay():
    return build_overlay(
        25,
        network_config=NetworkConfig(loss_rate=0.05, seed=7),
        seed=7,
    )


def run_workload(overlay) -> list[dict | None]:
    writer = overlay.nodes[0]
    reader = overlay.nodes[5]
    keys = [NodeID.hash_of(f"key-{i}") for i in range(10)]
    for i, key in enumerate(keys):
        writer.store(
            key,
            {"owner": f"o{i}", "type": "1", "entries": {"a": i + 1}},
        )
    for i, key in enumerate(keys):
        writer.append(key, f"o{i}", BlockType.RESOURCE_TAGS, {"b": 2})
    out = []
    for key in keys:
        value, _ = reader.retrieve(key)
        out.append(value["entries"] if value else None)
    return out


class TestPinnedBaseline:
    def test_workload_matches_pre_seam_trajectory(self, overlay):
        values = run_workload(overlay)
        stats = overlay.network.stats
        assert overlay.network.clock.now == EXPECTED_CLOCK
        assert stats.messages_sent == EXPECTED_SENT
        assert stats.messages_delivered == EXPECTED_DELIVERED
        assert stats.messages_dropped == EXPECTED_DROPPED
        assert stats.rpcs_failed_unreachable == EXPECTED_UNREACHABLE
        assert values == EXPECTED_VALUES


class TestSeamWiring:
    def test_every_node_speaks_through_the_overlay_network(self, overlay):
        assert all(node.transport is overlay.network for node in overlay.nodes)
        assert overlay.network.stats is overlay.nodes[0].transport.stats

    def test_transport_stats_track_per_type_counters(self, overlay):
        run_workload(overlay)
        stats = overlay.nodes[0].transport.stats
        # The workload exercises at least find_node (joins + lookups), store,
        # append and find_value.
        for name in ("find_node", "store", "append", "find_value"):
            per_type = stats.of(name)
            assert per_type.sent > 0, name
            assert per_type.succeeded + per_type.failed == per_type.sent
        # Transport-level totals and network totals agree on failures: every
        # TransportError raised by the network was recorded by the adapter.
        failed = stats.rpcs_failed
        net = overlay.network.stats
        assert failed == net.messages_dropped + net.rpcs_failed_unreachable
