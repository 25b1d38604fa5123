"""Faceted search over the DHT.

At each navigation step the client fetches two blocks of the selected tag --
``t̂`` (related tags with similarities) and ``t̄`` (resources) -- and performs
the set intersections locally, exactly as Section IV-A describes; the cost is
therefore 2 overlay lookups per step (Table I, last column).

:class:`DistributedView` adapts the block store to the
:class:`~repro.core.faceted_search.FolksonomyView` protocol so that the search
engine of :mod:`repro.core.faceted_search` runs unchanged on top of the
overlay; :class:`DistributedFacetedSearch` is the user-facing wrapper that
also tracks per-search lookup costs.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.faceted_search import FacetedSearch, SearchResult, SearchStrategy
from repro.distributed.block_store import BlockStore
from repro.distributed.cost_model import CostLedger, OperationCost

__all__ = ["DistributedView", "DistributedFacetedSearch"]


class DistributedView:
    """Folksonomy view backed by DHT blocks (2 lookups per tag visited).

    The search engine always reads a tag's ``t̂`` block and then its ``t̄``
    block; the view fetches both through the store's batch accessor, so a
    configured lookup engine resolves the pair in one coalesced schedule, and
    keeps the ``t̄`` half in a one-entry buffer for the immediately following
    :meth:`resources_of` call.  The cost stays 2 lookups per visited tag.
    """

    def __init__(self, store: BlockStore) -> None:
        self.store = store
        self._pending: tuple[str, dict[str, int]] | None = None

    def neighbour_similarities(self, tag: str) -> Mapping[str, int]:
        neighbours, resources = self.store.search_tag_blocks(tag)
        self._pending = (tag, resources)
        return neighbours

    def resources_of(self, tag: str) -> set[str]:
        """``Res(tag)``, served from the one-entry ``t̄`` buffer when it was
        coalesced by the immediately preceding :meth:`neighbour_similarities`
        call for the *same* tag.

        The buffer is strictly one-shot: any :meth:`resources_of` call
        consumes it, and a call for a *different* tag discards it and pays a
        fresh lookup -- the buffered block must never outlive the search step
        it was fetched for, or a write between steps could serve stale data.
        """
        pending = self._pending
        self._pending = None
        if pending is not None and pending[0] == tag:
            return set(pending[1])
        return set(self.store.search_tag_resources(tag))


class DistributedFacetedSearch:
    """Faceted search executed against the overlay.

    Parameters mirror :class:`~repro.core.faceted_search.FacetedSearch`; the
    extra *ledger* records one ``search_step`` cost entry per tag visited so
    the measured per-step cost can be checked against the Table I constant.
    """

    def __init__(
        self,
        store: BlockStore,
        display_limit: int = 100,
        resource_threshold: int = 10,
        max_steps: int = 10_000,
        seed: int | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        self.store = store
        self.view = DistributedView(store)
        self.engine = FacetedSearch(
            self.view,
            display_limit=display_limit,
            resource_threshold=resource_threshold,
            max_steps=max_steps,
            seed=seed,
        )
        self.ledger = ledger if ledger is not None else CostLedger()

    def run(self, start_tag: str, strategy: SearchStrategy | str) -> SearchResult:
        """Run a full search, recording the lookup cost of every step."""
        before = self.store.lookups
        result = self.engine.run(start_tag, strategy)
        total = self.store.lookups - before
        # The engine touches the view once per tag on the path, costing two
        # lookups each; spread the measured totals uniformly over the steps so
        # per-step records stay meaningful even if a future view caches.
        steps = max(result.length, 1)
        base, remainder = divmod(total, steps)
        for index in range(steps):
            lookups = base + (1 if index < remainder else 0)
            self.ledger.record(OperationCost(operation="search_step", lookups=lookups, size=0))
        return result

    def lookups_per_step(self) -> float:
        """Mean measured lookups per search step so far."""
        return self.ledger.mean_lookups("search_step")
