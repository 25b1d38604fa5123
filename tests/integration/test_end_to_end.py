"""Integration tests: the full DHARMA stack on a simulated overlay.

These tests replay realistic workloads through the distributed service and
cross-check the state stored on the overlay against the in-memory reference
model, including under message loss and node churn.
"""

import pytest

from repro.core.approximation import ApproximationConfig, EXACT, default_approximation
from repro.core.faceted_search import FacetedSearch, ModelView
from repro.core.tagging_model import TaggingModel
from repro.dht.bootstrap import build_overlay
from repro.dht.node import NodeConfig
from repro.distributed.cost_model import approximated_tag_cost, naive_tag_cost
from repro.distributed.tagging_service import DharmaService, ServiceConfig
from repro.simulation.churn import ChurnConfig, ChurnProcess
from repro.simulation.event_queue import EventQueue
from repro.simulation.network import NetworkConfig
from repro.simulation.workload import TaggingWorkload


def make_overlay(n=16, seed=0, loss_rate=0.0):
    return build_overlay(
        n,
        node_config=NodeConfig(k=8, alpha=3, replicate=3),
        network_config=NetworkConfig(min_latency_ms=1, max_latency_ms=4, seed=seed, loss_rate=loss_rate),
        seed=seed,
    )


@pytest.fixture(scope="module")
def micro_workload(micro_dataset):
    return TaggingWorkload.from_triples(micro_dataset.triples())


class TestDistributedStateMatchesReferenceModel:
    def test_naive_protocol_reproduces_exact_graphs_on_overlay(self, micro_dataset, micro_workload):
        overlay = make_overlay(seed=1)
        service = DharmaService(
            overlay, user="ingestor", config=ServiceConfig(protocol="naive", seed=1)
        )
        micro_workload.replay(service, limit=300)

        reference = TaggingModel(approximation=EXACT)
        TaggingWorkload.from_triples(micro_dataset.triples()).replay(reference, limit=300)

        # Spot-check every tag of the reference model against overlay blocks.
        for tag in reference.trg.tags:
            assert service.resources_of(tag) == dict(reference.trg.resources_of(tag))
            assert dict(service.related_tags(tag)) == dict(reference.fg.out_arcs(tag))
        for resource in list(reference.trg.resources)[:40]:
            assert service.tags_of(resource) == dict(reference.trg.tags_of(resource))

    def test_approximated_protocol_costs_bounded_on_real_workload(self, micro_workload):
        overlay = make_overlay(seed=2)
        k = 2
        service = DharmaService(
            overlay,
            user="ingestor",
            config=ServiceConfig(protocol="approximated", approximation=default_approximation(k), seed=2),
        )
        micro_workload.replay(service, limit=300)
        summary = service.cost_summary()
        assert summary["tag"]["max_lookups"] <= approximated_tag_cost(k)

    def test_naive_protocol_cost_grows_with_resource_degree(self, micro_workload):
        overlay = make_overlay(seed=3)
        service = DharmaService(overlay, user="ingestor", config=ServiceConfig(protocol="naive", seed=3))
        micro_workload.replay(service, limit=300)
        summary = service.cost_summary()
        max_degree = max(cost.size for cost in service.ledger.records if cost.operation == "tag")
        assert summary["tag"]["max_lookups"] == naive_tag_cost(max_degree) or (
            summary["tag"]["max_lookups"] <= naive_tag_cost(max_degree)
        )
        # The whole point of DHARMA: for resources with many tags the naive
        # cost exceeds the approximated bound.
        if max_degree > 2:
            assert summary["tag"]["max_lookups"] > approximated_tag_cost(2)


class TestDistributedSearchMatchesLocalSearch:
    def test_search_results_equal_in_memory_search(self, micro_dataset):
        """A faceted search executed over the DHT follows exactly the same
        path as the same search on the in-memory exact model."""
        overlay = make_overlay(seed=4)
        service = DharmaService(overlay, user="ingestor", config=ServiceConfig(protocol="naive", seed=4))
        workload = TaggingWorkload.from_triples(micro_dataset.triples())
        workload.replay(service, limit=300)

        reference = TaggingModel(approximation=EXACT)
        TaggingWorkload.from_triples(micro_dataset.triples()).replay(reference, limit=300)

        local_engine = FacetedSearch(ModelView.from_model(reference), resource_threshold=3, seed=11)
        start = reference.trg.most_popular_tags(1)[0]
        for strategy in ("first", "last"):
            local = local_engine.run(start, strategy)
            service_result = DharmaService.faceted_search  # noqa: F841 (documentation)
            distributed = DharmaService(
                overlay,
                user=f"searcher-{strategy}",
                config=ServiceConfig(resource_threshold=3, seed=11),
            ).faceted_search(start, strategy)
            assert distributed.path == local.path
            assert distributed.final_resources == local.final_resources


class TestResilience:
    def test_workload_replay_survives_message_loss(self, micro_workload):
        overlay = make_overlay(seed=5, loss_rate=0.02)
        service = DharmaService(
            overlay, user="ingestor", config=ServiceConfig(protocol="approximated", seed=5)
        )
        stats = micro_workload.replay(service, limit=200, ignore_errors=True)
        # The vast majority of operations still complete; data is readable.
        assert stats.total_ops >= 150
        some_tag = next(iter({e.tags[0] for e in micro_workload.events[:50]}))
        assert isinstance(service.resources_of(some_tag), dict)

    def test_tagging_continues_under_churn(self, micro_workload):
        overlay = make_overlay(n=20, seed=6)
        service = DharmaService(
            overlay, user="ingestor", config=ServiceConfig(protocol="approximated", seed=6)
        )
        queue = EventQueue(overlay.clock)
        churn = ChurnProcess(
            overlay,
            queue,
            ChurnConfig(join_rate=0.2, mean_session_s=30.0, crash_probability=0.3, min_nodes=10, seed=6),
        )
        churn.schedule_trace(30_000.0)

        errors = 0
        for index, event in enumerate(micro_workload.events[:150]):
            try:
                if event.kind == "insert":
                    service.insert_resource(event.resource, list(event.tags))
                else:
                    service.add_tag(event.resource, event.tags[0])
            except Exception:
                errors += 1
            if index % 10 == 0:
                queue.run_until(overlay.clock.now + 2_000, max_events=50)

        assert churn.joins + churn.graceful_leaves + churn.crashes > 0
        assert errors <= 15  # occasional failures tolerated, no collapse

    def test_hotspot_accounting_identifies_loaded_nodes(self, micro_workload):
        overlay = make_overlay(seed=7)
        service = DharmaService(overlay, user="ingestor", config=ServiceConfig(seed=7))
        micro_workload.replay(service, limit=200)
        hotspots = overlay.network.stats.hotspots(3)
        assert len(hotspots) == 3
        assert hotspots[0][1] >= hotspots[1][1] >= hotspots[2][1]
        load = overlay.storage_load()
        assert sum(load.values()) > 0
