"""Tests for the in-process cluster harness."""

import random
import sys
from collections import Counter

import pytest

from repro.datasets import generate_lastfm_like
from repro.distributed.tagging_service import DharmaService, ServiceConfig
from repro.simulation.cluster import ClusterConfig, SimulatedCluster
from repro.simulation.workload import TaggingWorkload


def small_workload() -> TaggingWorkload:
    triples = [
        ("u1", "r1", "rock"), ("u2", "r1", "indie"), ("u3", "r1", "grunge"),
        ("u1", "r2", "rock"), ("u2", "r2", "pop"), ("u3", "r2", "rock"),
        ("u1", "r3", "jazz"), ("u2", "r3", "fusion"), ("u1", "r3", "rock"),
        ("u2", "r4", "indie"), ("u3", "r4", "rock"), ("u1", "r4", "pop"),
    ]
    return TaggingWorkload.from_triples(triples)


@pytest.fixture(scope="module")
def cluster():
    config = ClusterConfig(
        num_nodes=60,
        clients=3,
        bootstrap="fast",  # force the scalable path even at a small size
        op_interval_ms=5.0,
        seed=13,
    )
    return SimulatedCluster(config)


class TestConstruction:
    def test_fast_bootstrap_wires_every_node(self, cluster):
        assert len(cluster) == 60
        for node in cluster.overlay.nodes:
            assert node.joined
            assert sum(1 for _ in node.routing_table.contacts()) > 0
        assert len(cluster.services) == 3
        # Engine defaults are on: every client got a cache and an engine.
        for service in cluster.services:
            assert service.cache is not None
            assert service.engine is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(bootstrap="warp")
        with pytest.raises(ValueError):
            ClusterConfig(protocol="telepathy")

    def test_auto_bootstrap_uses_iterative_joins_when_small(self):
        cluster = SimulatedCluster(ClusterConfig(num_nodes=6, clients=1, seed=3))
        # Iterative joins generate join traffic; fast bootstrap does not.
        assert cluster.overlay.network.stats.messages_sent > 0


class TestWorkloadDriving:
    def test_workload_replays_without_losses(self, cluster):
        stats = cluster.run_workload(small_workload(), ignore_errors=False)
        assert stats.errors == 0
        assert stats.insert_ops == 4
        assert stats.tag_ops == 8
        # The event queue drained and virtual time moved forward.
        assert len(cluster.queue) == 0
        assert cluster.overlay.clock.now > 0

    def test_written_state_is_readable_from_any_client(self, cluster):
        # Runs after the module-scoped replay above.
        reader = cluster.services[-1]
        assert reader.tags_of("r1") == {"rock": 1, "indie": 1, "grunge": 1}
        resources = reader.resources_of("rock")
        assert set(resources) == {"r1", "r2", "r3", "r4"}


class TestLookupEngineAcceptance:
    """The acceptance bar of the batched/cached lookup engine: with it on, a
    faceted search costs at least 20 % fewer DHT messages than with it off."""

    OPS = 120
    SEARCHES = 12
    MIN_SEARCH_SAVINGS = 0.20

    @classmethod
    def messages_per_search(cls, workload: TaggingWorkload, engine_on: bool) -> float:
        cluster = SimulatedCluster(ClusterConfig(num_nodes=64, seed=0))
        if not engine_on:
            # A default ServiceConfig runs neither the engine nor the cache.
            cluster.services = [
                DharmaService(
                    cluster.overlay, user=f"plain-{index:03d}", config=ServiceConfig(seed=index)
                )
                for index in range(len(cluster.services))
            ]
        assert cluster.run_workload(workload, limit=cls.OPS, ignore_errors=False).errors == 0
        # Popular tags, drawn by popularity: folksonomy search traffic
        # revisits hot tags, which is what a block cache is for.
        usage = Counter(tag for event in workload.events[: cls.OPS] for tag in event.tags)
        pool = sorted(usage, key=lambda t: (-usage[t], t))[: cls.SEARCHES]
        start_tags = random.Random(0).choices(
            pool, weights=[usage[t] for t in pool], k=cls.SEARCHES
        )
        stats = cluster.overlay.network.stats
        before = stats.messages_sent
        for index, tag in enumerate(start_tags):
            service = cluster.services[index % len(cluster.services)]
            assert service.faceted_search(tag, "random").length >= 1
        return (stats.messages_sent - before) / cls.SEARCHES

    def test_engine_cuts_messages_per_search(self):
        workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
        plain = self.messages_per_search(workload, engine_on=False)
        engine = self.messages_per_search(workload, engine_on=True)
        saving = 1.0 - engine / plain
        assert saving >= self.MIN_SEARCH_SAVINGS, (
            f"engine saved {saving:.1%} messages/search ({engine:.1f} vs {plain:.1f})"
        )


class TestChurnWiring:
    def test_cluster_without_churn_rejects_start_churn(self, cluster):
        with pytest.raises(RuntimeError):
            cluster.start_churn(trace_horizon_ms=1_000.0)

    def test_churn_and_maintenance_are_wired_from_the_config(self):
        config = ClusterConfig(
            num_nodes=20,
            clients=1,
            bootstrap="fast",
            min_latency_ms=0.01,
            max_latency_ms=0.05,
            timeout_ms=0.25,
            churn=True,
            churn_join_rate=0.5,
            mean_session_s=30.0,
            churn_min_nodes=8,
            maintenance=True,
            republish_interval_ms=2_000.0,
            refresh_interval_ms=8_000.0,
            seed=5,
        )
        cluster = SimulatedCluster(config)
        assert cluster.churn is not None
        assert cluster.maintenance is not None
        assert len(cluster.maintenance) == 20

        # The workload replays with perpetual maintenance timers pending.
        stats = cluster.run_workload(small_workload(), ignore_errors=False)
        assert stats.errors == 0
        assert stats.total_ops == 12

        cluster.start_churn(trace_horizon_ms=40_000.0)
        cluster.run_for(40_000.0)
        departures = cluster.churn.graceful_leaves + cluster.churn.crashes
        assert departures > 0
        live = cluster.overlay.live_nodes()
        assert len(live) >= config.churn_min_nodes
        # Maintenance followed the membership changes.
        assert len(cluster.maintenance) == len(live)
        assert cluster.maintenance.stats.republish_runs > 0


class TestPerMessageCallBudget:
    #: Python-level function calls per simulated message on the tag path.
    #: 28 at the commit that set it (CPython 3.11; 3.12+ inline comprehensions
    #: and read lower); 62 one commit earlier, when every message was sized
    #: through ``repr``, every reply converted its contacts twice, k-closest
    #: heaped the whole table and the lookup hashed ``NodeID`` objects.
    CEILING = 36

    def test_tag_path_stays_inside_its_call_budget(self):
        """A deterministic stand-in for a timing test: bookkeeping that creeps
        back into the per-message path shows up as calls, on any machine."""
        cluster = SimulatedCluster(ClusterConfig(num_nodes=64, clients=2, seed=3))
        workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
        stats = cluster.overlay.network.stats
        sent_before = stats.messages_sent
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count_calls)
        try:
            result = cluster.run_workload(workload, limit=20, ignore_errors=False)
        finally:
            sys.setprofile(previous)
        messages = stats.messages_sent - sent_before
        assert result.errors == 0 and messages > 1_000
        assert calls / messages <= self.CEILING, f"{calls / messages:.1f} calls/message"

