"""Typed access to DHARMA blocks through a DHT client.

:class:`BlockStore` hides the key derivation and payload (de)serialisation of
the four block types behind intention-revealing methods, so the protocol code
reads like the paper's prose ("update block ``r̄``", "retrieve block ``t̂``").
Every method costs exactly one overlay lookup, delegated to
:class:`~repro.dht.api.DHTClient`, whose :class:`~repro.dht.api.LookupStats`
the protocols sample for cost accounting.

An optional :class:`~repro.distributed.block_cache.BlockCache` can be placed
in front of the reads: cache hits are served locally at zero overlay cost,
and every write through the store invalidates the cached variants of the
touched block so re-tags stay visible.  The cache's
:class:`~repro.distributed.cost_model.CacheStats` are exposed through
:attr:`BlockStore.cache_hits` for the protocols' cached-vs-network reporting.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.blocks import BlockKey
from repro.dht.api import DHTClient
from repro.distributed.block_cache import MISSING, BlockCache

__all__ = ["BlockStore"]


class BlockStore:
    """The block-level storage interface of DHARMA."""

    def __init__(
        self,
        client: DHTClient,
        search_top_n: int | None = None,
        cache: BlockCache | None = None,
    ) -> None:
        self.client = client
        #: Index-side filtering bound applied to search-time GETs (None = no
        #: truncation).  Mirrors the UDP payload limit discussed in Section V-A.
        self.search_top_n = search_top_n
        #: Optional read cache; None preserves the seed one-lookup-per-read
        #: behaviour exactly.
        self.cache = cache

    # -- convenience ------------------------------------------------------- #

    @property
    def lookups(self) -> int:
        """Total overlay lookups issued through this store so far."""
        return self.client.stats.lookups

    @property
    def rpc_messages(self) -> int:
        return self.client.stats.rpc_messages

    @property
    def cache_hits(self) -> int:
        """Block reads served from the local cache so far (0 without cache)."""
        return self.cache.stats.hits if self.cache is not None else 0

    # -- cache plumbing ----------------------------------------------------- #

    def _invalidate(self, block_key: BlockKey) -> None:
        if self.cache is not None:
            self.cache.invalidate_group(block_key)

    def _cached_entries(self, block_key: BlockKey, top_n: int | None) -> dict[str, int]:
        """GET a counter block's entries, consulting the cache first.

        Entries are cached per ``(block, top_n)`` variant and grouped under
        the block key, so one write drops every variant at once.  Empty
        results are not cached: a block that does not exist yet may be created
        by another client at any moment.
        """
        if self.cache is None:
            return self.client.get_entries(block_key, top_n=top_n)
        cached = self.cache.get((block_key, top_n))
        if cached is not MISSING:
            return dict(cached)
        entries = self.client.get_entries(block_key, top_n=top_n)
        if entries:
            self.cache.put((block_key, top_n), dict(entries), group=block_key)
        return entries

    def get_entries_many(
        self, block_keys: Sequence[BlockKey], top_n: int | None = None
    ) -> list[dict[str, int]]:
        """GET several counter blocks, batching the overlay lookups.

        Cache hits are filtered out first; the remaining keys go through
        :meth:`~repro.dht.api.DHTClient.get_entries_many`, which hands them to
        the batched lookup engine (when one is configured) so duplicate keys
        and near keys share lookup work.
        """
        results: list[dict[str, int] | None] = [None] * len(block_keys)
        missing: list[tuple[int, BlockKey]] = []
        for index, block_key in enumerate(block_keys):
            if self.cache is not None:
                cached = self.cache.get((block_key, top_n))
                if cached is not MISSING:
                    results[index] = dict(cached)
                    continue
            missing.append((index, block_key))
        if missing:
            fetched = self.client.get_entries_many([bk for _, bk in missing], top_n=top_n)
            for (index, block_key), entries in zip(missing, fetched):
                if self.cache is not None and entries:
                    self.cache.put((block_key, top_n), dict(entries), group=block_key)
                results[index] = entries
        return [entries if entries is not None else {} for entries in results]

    # -- type 4: r̃ (resource URI) ------------------------------------------ #

    def put_resource_uri(self, resource: str, uri: str) -> None:
        """Create/replace the ``r̃`` block associating *resource* to *uri*."""
        block_key = BlockKey.resource_uri(resource)
        self.client.put(
            block_key,
            {"owner": resource, "type": "4", "uri": uri},
        )
        self._invalidate(block_key)

    def get_resource_uri(self, resource: str) -> str | None:
        """Resolve the URI of *resource* (None when unknown)."""
        block_key = BlockKey.resource_uri(resource)
        if self.cache is not None:
            cached = self.cache.get((block_key, None))
            if cached is not MISSING:
                return cached
        payload = self.client.get(block_key)
        uri = payload.get("uri") if isinstance(payload, dict) else None
        if self.cache is not None and uri is not None:
            self.cache.put((block_key, None), uri, group=block_key)
        return uri

    # -- type 1: r̄ (resource -> tags) ---------------------------------------- #

    def append_resource_tags(self, resource: str, increments: dict[str, int]) -> None:
        """Add tag tokens to the ``r̄`` block of *resource*."""
        block_key = BlockKey.resource_tags(resource)
        self.client.append(block_key, increments)
        self._invalidate(block_key)

    def get_resource_tags(self, resource: str, top_n: int | None = None) -> dict[str, int]:
        """``{t: u(t, r)}`` from the ``r̄`` block ({} when absent)."""
        return self._cached_entries(BlockKey.resource_tags(resource), top_n)

    # -- type 2: t̄ (tag -> resources) ----------------------------------------- #

    def append_tag_resources(self, tag: str, increments: dict[str, int]) -> None:
        """Add resource tokens to the ``t̄`` block of *tag*."""
        block_key = BlockKey.tag_resources(tag)
        self.client.append(block_key, increments)
        self._invalidate(block_key)

    def get_tag_resources(self, tag: str, top_n: int | None = None) -> dict[str, int]:
        """``{r: u(t, r)}`` from the ``t̄`` block ({} when absent)."""
        return self._cached_entries(BlockKey.tag_resources(tag), top_n)

    # -- type 3: t̂ (tag -> neighbour tags) ------------------------------------- #

    def append_tag_neighbours(
        self,
        tag: str,
        increments: dict[str, int],
        increments_if_new: dict[str, int] | None = None,
    ) -> None:
        """Add similarity tokens to the ``t̂`` block of *tag*.

        *increments_if_new* is forwarded to the storage node so that a
        brand-new arc can receive a different initial weight (Approximation B).
        """
        block_key = BlockKey.tag_neighbours(tag)
        self.client.append(
            block_key, increments, increments_if_new=increments_if_new
        )
        self._invalidate(block_key)

    def get_tag_neighbours(self, tag: str, top_n: int | None = None) -> dict[str, int]:
        """``{t': sim(t, t')}`` from the ``t̂`` block ({} when absent)."""
        return self._cached_entries(BlockKey.tag_neighbours(tag), top_n)

    # -- search-time accessors (apply the configured filtering bound) --------- #

    def search_tag_neighbours(self, tag: str) -> dict[str, int]:
        return self.get_tag_neighbours(tag, top_n=self.search_top_n)

    def search_tag_resources(self, tag: str) -> dict[str, int]:
        return self.get_tag_resources(tag, top_n=self.search_top_n)

    def search_tag_blocks(self, tag: str) -> tuple[dict[str, int], dict[str, int]]:
        """Fetch the ``t̂`` and ``t̄`` blocks of one search step together.

        Batching the two GETs lets a configured lookup engine resolve them in
        one shared round-trip schedule (Table I still charges 2 lookups).
        """
        neighbours, resources = self.get_entries_many(
            [BlockKey.tag_neighbours(tag), BlockKey.tag_resources(tag)],
            top_n=self.search_top_n,
        )
        return neighbours, resources
