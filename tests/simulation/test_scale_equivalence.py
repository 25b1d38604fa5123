"""The compact DHT core drives the simulation the legacy routing table did.

The compact DHT core (array-backed k-buckets, bucket-ordered k-closest
selection, interned-id bootstrap ordering) replaced the legacy routing table
on every hot path, so this module pins a full 1000-node lossy churn workload
-- maintenance on, 5% message loss, crash/leave/join trace -- and requires the
virtual clock, the message totals and the complete :class:`SurvivalReport`
to equal, bit-for-bit, the hardcoded baseline below.

The constants mirror ``tests/net/test_transport_equivalence.py``: they were
captured from a run of the legacy implementation, which nodes could still
build until the compact table became the only one, and must never drift.
If a change moves any of them, it altered simulation behaviour -- either fix
it, or consciously re-baseline and say so in the commit.

Re-baselined once, on purpose, when nodes started remembering peers they
watched fail (ISSUE 14): 89 nodes crash in this run, and a node no longer
re-queries a corpse because a third peer still lists it.  Before that change
the clock read 20.476519514452132 with 31,275 messages; the first two probes
still read exactly as they did then.

Re-baselined a second time, on purpose, when ``lookup_node`` stopped pinging
a full bucket's least-recently-seen contact on behalf of each contact that
had just answered the lookup.  Before that change the clock read
20.47050986234953 with 31,210 messages, the floor held 40 entries and every
probe read 1.0 but the 10 s one (0.975).  Now the floor (entries every live
replica agreed on before the churn) holds 37, the 10 s probe reads 1.0 and
the 20 s one 0.95: two of its 40 keys answer neither of the probe's two
reads.  The audit is unchanged: availability 1.0, no block lost, no
violation.

Re-baselined a third time, on purpose, when maintenance took up Kademlia's
two skip rules: a key a peer's STORE dominated since the previous republish
pass is not republished, and a bucket one of the node's own lookups walked
since the previous refresh is not refreshed.  Before that change the clock
read 20.496460802996506 with 31,081 messages, 727 blocks republished and
2,175 replicas written, and the 20 s probe read 0.95.  Now 402 republishes
are skipped, 242 run (720 replicas written), 19,995 messages are sent and
every probe reads 1.0.  Refresh never runs inside this 20 s horizon, so
that rule does not show here.  The audit is unchanged: availability 1.0, no
block lost, no violation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datasets.lastfm_synthetic import generate_lastfm_like
from repro.simulation.cluster import churn_cluster_config
from repro.simulation.experiment import run_survival_benchmark
from repro.simulation.workload import TaggingWorkload

# Baseline captured from the legacy RoutingTable implementation.
EXPECTED_CLOCK = 20.48305806610152
EXPECTED_MESSAGES = 19_995
EXPECTED_SUMMARY = {
    "blocks_written": 51,
    "churn_appends": 5,
    "counter_blocks": 34,
    "crashes": 89,
    "duration_s": 20.0,
    "entries_checked": 37,
    "final_availability": 1.0,
    "graceful_leaves": 74,
    "integrity_violations": 0,
    "joins": 174,
    "live_nodes_end": 1011,
    "lost_blocks": 0,
    "maint_blocks_handed_off": 42,
    "maint_blocks_republished": 242,
    "maint_blocks_skipped": 402,
    "maint_buckets_pinged": 0,
    "maint_buckets_refreshed": 0,
    "maint_buckets_skipped": 0,
    "maint_refresh_runs": 0,
    "maint_replicas_written": 720,
    "maint_republish_runs": 2884,
    "maint_timers_cancelled": 326,
    "maintenance": 1,
    "messages_total": EXPECTED_MESSAGES,
    "nodes": 1000,
    "virtual_time_s": EXPECTED_CLOCK,
}
EXPECTED_SAMPLES = [
    (5.0398867867764885, 1.0),
    (10.042858725361297, 1.0),
    (15.033186180673034, 1.0),
    (20.038997568606682, 1.0),
]


@pytest.fixture(scope="module")
def report():
    """One 1k-node lossy churn run."""
    workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
    config = dataclasses.replace(
        churn_cluster_config(
            num_nodes=1000,
            maintenance=True,
            mean_session_s=120.0,
            republish_interval_ms=6_000.0,
            refresh_interval_ms=60_000.0,
            seed=3,
        ),
        loss_rate=0.05,
    )
    return run_survival_benchmark(
        config,
        workload,
        ops=32,
        duration_s=20.0,
        sample_every_s=5.0,
        probe_keys=40,
        append_keys=5,
    )


def _summary(report) -> dict:
    summary = dict(report.summary())
    summary.pop("wall_time_s")  # the only field allowed to differ
    return summary


class TestPinnedBaseline:
    def test_virtual_clock_is_pinned(self, report):
        assert report.virtual_time_s == EXPECTED_CLOCK

    def test_message_count_is_pinned(self, report):
        assert report.messages_total == EXPECTED_MESSAGES

    def test_survival_report_is_pinned(self, report):
        assert _summary(report) == EXPECTED_SUMMARY

    def test_availability_samples_are_pinned(self, report):
        assert report.samples == EXPECTED_SAMPLES
