"""Shared machinery of the DHARMA maintenance protocols.

Both the naive and the approximated protocol publish resources the same way
(Section IV-A); they only differ in how a *tagging operation* updates the
Folksonomy Graph blocks.  :class:`BaseDharmaProtocol` implements everything
common -- resource insertion, the constant part of the tagging operation, and
cost-ledger bookkeeping -- and leaves the FG update policy to
:meth:`BaseDharmaProtocol._update_folksonomy`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.distributed.block_store import BlockStore
from repro.distributed.cost_model import CostLedger, OperationCost

__all__ = ["BaseDharmaProtocol"]


class BaseDharmaProtocol(ABC):
    """Common implementation of the DHARMA publish/tag primitives.

    Parameters
    ----------
    store:
        Block-level access to the overlay.
    ledger:
        Cost ledger that receives one :class:`OperationCost` per primitive.
    seed:
        Seed of the random generator used by subclasses (Approximation A).
    """

    #: Human-readable protocol name used in reports.
    name: str = "base"

    def __init__(
        self,
        store: BlockStore,
        ledger: CostLedger | None = None,
        seed: int | None = None,
    ) -> None:
        self.store = store
        # Note: an empty ledger is falsy (len == 0), so test identity, not truth.
        self.ledger = ledger if ledger is not None else CostLedger()
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Resource insertion (identical in both protocols, cost 2 + 2m)
    # ------------------------------------------------------------------ #

    def insert_resource(
        self, resource: str, tags: Sequence[str], uri: str | None = None
    ) -> OperationCost:
        """Publish a new resource labelled with *tags*.

        Creates the ``r̃`` and ``r̄`` blocks, then for each tag updates its
        ``t̄`` block (reverse TRG edge) and its ``t̂`` block (FG arcs towards
        the other tags of the insertion).
        """
        unique_tags = list(dict.fromkeys(tags))  # preserve order, drop repeats
        if not unique_tags:
            raise ValueError("a resource must be inserted with at least one tag")
        before = self.store.lookups
        before_rpc = self.store.rpc_messages
        before_cached = self.store.cache_hits

        # Type-4 block: the resource URI.
        self.store.put_resource_uri(resource, uri or f"urn:dharma:{resource}")
        # Type-1 block: resource -> tags, one token per tag.
        self.store.append_resource_tags(resource, {t: 1 for t in unique_tags})
        # Per tag: type-2 block (tag -> resource) and type-3 block (FG arcs).
        for tag in unique_tags:
            self.store.append_tag_resources(tag, {resource: 1})
            co_tags = {other: 1 for other in unique_tags if other != tag}
            if co_tags:
                self.store.append_tag_neighbours(tag, co_tags)

        cost = OperationCost(
            operation="insert",
            lookups=self.store.lookups - before,
            size=len(unique_tags),
            rpc_messages=self.store.rpc_messages - before_rpc,
            cache_hits=self.store.cache_hits - before_cached,
        )
        self.ledger.record(cost)
        return cost

    # ------------------------------------------------------------------ #
    # Tagging operation (cost 4 + |Tags(r)| or 4 + k)
    # ------------------------------------------------------------------ #

    def add_tag(self, resource: str, tag: str) -> OperationCost:
        """Attach *tag* to the existing *resource* (one user annotation)."""
        before = self.store.lookups
        before_rpc = self.store.rpc_messages
        before_cached = self.store.cache_hits

        # 1 lookup: read r̄ to learn the co-tags and whether the tag is new.
        tags_before = self.store.get_resource_tags(resource)
        was_present = tag in tags_before
        co_tags = {t: w for t, w in tags_before.items() if t != tag}

        # 2 lookups: update the TRG blocks r̄ and t̄.
        self.store.append_resource_tags(resource, {tag: 1})
        self.store.append_tag_resources(tag, {resource: 1})

        # Remaining lookups: FG update, protocol-specific.
        self._update_folksonomy(resource, tag, co_tags, was_present)

        cost = OperationCost(
            operation="tag",
            lookups=self.store.lookups - before,
            size=len(co_tags),
            rpc_messages=self.store.rpc_messages - before_rpc,
            cache_hits=self.store.cache_hits - before_cached,
        )
        self.ledger.record(cost)
        return cost

    @abstractmethod
    def _update_folksonomy(
        self,
        resource: str,
        tag: str,
        co_tags: dict[str, int],
        was_present: bool,
    ) -> None:
        """Update the ``t̂`` / ``τ̂`` blocks after *tag* was attached to
        *resource*.

        *co_tags* maps every other tag of the resource (before the operation)
        to its weight ``u(τ, r)``; *was_present* says whether the tag already
        labelled the resource.
        """
