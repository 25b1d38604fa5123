"""The DHARMA service facade.

:class:`DharmaService` is what an application embeds: it binds a user identity
to an overlay access point and exposes the three user-level primitives --
publish a resource, tag a resource, run a faceted search -- on top of either
the naive or the approximated maintenance protocol.

It also implements the :class:`~repro.simulation.workload.TaggingBackend`
protocol, so any workload can be replayed indifferently against the in-memory
reference model or against a live overlay, which is how the integration tests
validate the distributed state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.approximation import ApproximationConfig, default_approximation
from repro.core.faceted_search import SearchResult, SearchStrategy
from repro.dht.api import DHTClient
from repro.dht.batched_lookup import BatchedLookupEngine
from repro.dht.bootstrap import Overlay
from repro.distributed.approximated_protocol import ApproximatedProtocol
from repro.distributed.block_cache import BlockCache
from repro.distributed.block_store import BlockStore
from repro.distributed.cost_model import CostLedger, OperationCost
from repro.distributed.naive_protocol import NaiveProtocol
from repro.distributed.search_client import DistributedFacetedSearch

__all__ = ["ServiceConfig", "DharmaService"]


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Configuration of a DHARMA service instance."""

    #: "approximated" (the paper's proposal) or "naive" (the baseline).
    protocol: str = "approximated"
    #: Approximation policy used when ``protocol == "approximated"``.
    approximation: ApproximationConfig | None = None
    #: Tags shown per search step (the paper's top-100 display bound).
    display_limit: int = 100
    #: Search stops when the candidate resources shrink to this size.
    resource_threshold: int = 10
    #: Index-side filtering bound applied to search GETs (None = whole block).
    search_top_n: int | None = None
    #: Block-cache capacity; 0 disables the cache (the seed behaviour: every
    #: read is an overlay lookup).
    cache_capacity: int = 0
    #: Block-cache entry lifetime in virtual ms (None = no expiry).
    cache_ttl_ms: float | None = None
    #: Route lookups through a :class:`BatchedLookupEngine` (route caching,
    #: in-flight dedup, coalesced rounds) instead of raw iterative lookups.
    batch_lookups: bool = False
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.protocol not in ("approximated", "naive"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")


class DharmaService:
    """User-facing distributed tagging service."""

    def __init__(
        self,
        overlay: Overlay,
        user: str,
        config: ServiceConfig | None = None,
    ) -> None:
        self.overlay = overlay
        self.config = config or ServiceConfig()
        self.identity = overlay.register_user(user)
        access_node = overlay.random_node()
        self.engine: BatchedLookupEngine | None = None
        if self.config.batch_lookups:
            self.engine = BatchedLookupEngine(access_node)
        self.client: DHTClient = DHTClient(access_node, identity=self.identity, engine=self.engine)
        self.cache: BlockCache | None = None
        if self.config.cache_capacity:
            clock = overlay.clock
            self.cache = BlockCache(
                capacity=self.config.cache_capacity,
                ttl_ms=self.config.cache_ttl_ms,
                clock=lambda: clock.now,
            )
        self.store = BlockStore(
            self.client, search_top_n=self.config.search_top_n, cache=self.cache
        )
        self.ledger = CostLedger()
        if self.config.protocol == "naive":
            self.protocol = NaiveProtocol(self.store, ledger=self.ledger, seed=self.config.seed)
        else:
            self.protocol = ApproximatedProtocol(
                self.store,
                approximation=self.config.approximation or default_approximation(k=1),
                ledger=self.ledger,
                seed=self.config.seed,
            )
        self.search = DistributedFacetedSearch(
            self.store,
            display_limit=self.config.display_limit,
            resource_threshold=self.config.resource_threshold,
            seed=self.config.seed,
            ledger=self.ledger,
        )

    # ------------------------------------------------------------------ #
    # user primitives
    # ------------------------------------------------------------------ #

    def insert_resource(
        self, resource: str, tags: Sequence[str], uri: str | None = None
    ) -> OperationCost:
        """Publish *resource* labelled with *tags* (cost ``2 + 2m``)."""
        return self.protocol.insert_resource(resource, tags, uri=uri)

    def add_tag(self, resource: str, tag: str) -> OperationCost:
        """Attach *tag* to *resource* (cost ``4 + |Tags(r)|`` or ``4 + k``)."""
        return self.protocol.add_tag(resource, tag)

    def faceted_search(self, start_tag: str, strategy: SearchStrategy | str = "random") -> SearchResult:
        """Run a faceted search starting from *start_tag*."""
        return self.search.run(start_tag, strategy)

    # ------------------------------------------------------------------ #
    # read-side helpers
    # ------------------------------------------------------------------ #

    def tags_of(self, resource: str) -> dict[str, int]:
        """The tags of *resource* with their weights, read from the overlay."""
        return self.store.get_resource_tags(resource)

    def resources_of(self, tag: str, top_n: int | None = None) -> dict[str, int]:
        """The resources labelled with *tag*, read from the overlay."""
        return self.store.get_tag_resources(tag, top_n=top_n)

    def related_tags(self, tag: str, top_n: int | None = None) -> list[tuple[str, int]]:
        """FG neighbours of *tag* ranked by similarity."""
        entries = self.store.get_tag_neighbours(tag, top_n=top_n)
        return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))

    def resolve(self, resource: str) -> str | None:
        """Resolve the URI of *resource* through its ``r̃`` block."""
        return self.store.get_resource_uri(resource)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def total_lookups(self) -> int:
        """Overlay lookups issued by this service instance so far."""
        return self.client.stats.lookups

    def cost_summary(self) -> dict[str, dict[str, float]]:
        """Per-primitive measured cost summary (mean/max/total lookups)."""
        return self.ledger.summary()

    def efficiency_snapshot(self) -> dict[str, dict[str, float]]:
        """Counters of the optional cache / lookup engine (empty when off)."""
        out: dict[str, dict[str, float]] = {}
        if self.cache is not None:
            out["cache"] = self.cache.stats.snapshot()
        if self.engine is not None:
            out["engine"] = dict(self.engine.stats.snapshot())
        return out
