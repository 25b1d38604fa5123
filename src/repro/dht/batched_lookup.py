"""Batched, cache-aware lookup scheduling for the overlay client.

The seed client resolves every block access with a full iterative Kademlia
lookup, even when the same key was located an instant earlier (every APPEND to
a popular tag block re-walks the overlay) and even when several keys are
requested together (each faceted-search step fetches two blocks back to
back).  :class:`BatchedLookupEngine` sits between
:class:`~repro.dht.api.DHTClient` and :class:`~repro.dht.node.KademliaNode`
and removes that redundancy with three cooperating mechanisms:

* **route caching** -- the replica set discovered by a lookup is remembered
  (LRU + TTL against the virtual clock), so the next operation on the same
  key talks to the replicas directly: an iterative lookup's worth of RPCs
  collapses into at most ``replicate`` direct messages.  A cached route
  that stops answering is invalidated and the full lookup re-run, so the
  engine degrades to seed behaviour instead of losing operations;
* **in-flight deduplication** -- a batch of concurrent requests for the same
  key (e.g. the two halves of a search step landing on one hot tag) performs
  the iterative lookup once and shares the outcome;
* **round coalescing** -- within a batch, lookups are ordered by key and a
  lookup whose target shares a :data:`COALESCE_BITS`-bit XOR prefix with the
  previous one is seeded with the contacts that lookup just discovered:
  nearby keys then skip the early routing rounds and converge in the final
  hops (the batched-RPC idea of hivemind's ``KademliaProtocol`` applied to
  our synchronous simulator).

The engine mirrors the node's ``retrieve`` / ``store`` / ``append`` API, so
the client can delegate blindly; all counters are collected in
:class:`BatchStats` and surfaced by the cluster harness and benchmarks.  Its
policy is fixed: :data:`ROUTE_CACHE_SIZE` routes, each living
:data:`ROUTE_CACHE_TTL_MS`, and :data:`COALESCE_BITS` of shared prefix to
seed a neighbour's lookup.

Invariants
----------

* **cache-independent correctness** -- a cached route is an optimisation
  hint, never an authority: any route that fails to produce a full result
  falls back to the complete iterative lookup, so the engine's answers equal
  the seed client's answers for every operation (only the message count
  differs).
* **bounded staleness** -- routes expire on the virtual clock (TTL) and are
  invalidated on first failure, so a replica set can be stale for at most
  one failed operation or one TTL window, whichever ends first.
* **deterministic batching** -- batches are processed in key order and all
  tie-breaks are data-driven (no wall clock, no unseeded randomness), so a
  batched run is reproducible event-for-event under the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import BlockType
from repro.dht.likir import Identity
from repro.dht.lookup import LookupOutcome, iterative_lookup
from repro.dht.node import KademliaNode
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact

__all__ = [
    "BatchStats",
    "BatchedLookupEngine",
    "ROUTE_CACHE_SIZE",
    "ROUTE_CACHE_TTL_MS",
    "COALESCE_BITS",
]

#: Maximum number of cached routes (LRU beyond that).
ROUTE_CACHE_SIZE = 4096
#: Route lifetime in virtual milliseconds.  Routes are also invalidated
#: reactively when their replicas stop answering, so the TTL only bounds
#: staleness under silent topology change.
ROUTE_CACHE_TTL_MS = 60_000.0
#: Two batched lookups whose targets share this many leading bits reuse each
#: other's discovered contacts as seeds.
COALESCE_BITS = 12


@dataclass(slots=True)
class BatchStats:
    """Counters describing how much work the engine avoided."""

    #: Individual key requests handed to the engine (reads and writes).
    requests: int = 0
    #: Reads answered from the access node's own storage (no messages).
    local_hits: int = 0
    #: Operations that reused a cached route instead of a full lookup.
    route_hits: int = 0
    #: Cached routes that stopped answering and forced a full lookup.
    route_fallbacks: int = 0
    #: Full iterative lookups actually performed.
    full_lookups: int = 0
    #: Batch requests answered by sharing another in-flight lookup's result.
    dedup_hits: int = 0
    #: Full lookups that started from a batch neighbour's discovered contacts.
    seeded_lookups: int = 0
    #: Routes dropped because their replicas failed to answer.
    route_invalidations: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "local_hits": self.local_hits,
            "route_hits": self.route_hits,
            "route_fallbacks": self.route_fallbacks,
            "full_lookups": self.full_lookups,
            "dedup_hits": self.dedup_hits,
            "seeded_lookups": self.seeded_lookups,
            "route_invalidations": self.route_invalidations,
        }


class BatchedLookupEngine:
    """Cache-aware lookup scheduler bound to one access node."""

    def __init__(self, node: KademliaNode) -> None:
        self.node = node
        self.stats = BatchStats()
        #: key -> (contacts sorted by distance, cached_at virtual ms)
        self._routes: OrderedDict[NodeID, tuple[tuple[Contact, ...], float]] = OrderedDict()

    # ------------------------------------------------------------------ #
    # route cache
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return self.node.transport.clock.now

    def _cached_route(self, key: NodeID) -> tuple[Contact, ...] | None:
        entry = self._routes.get(key)
        if entry is None:
            return None
        contacts, cached_at = entry
        if self._now() - cached_at > ROUTE_CACHE_TTL_MS:
            del self._routes[key]
            return None
        self._routes.move_to_end(key)
        # A route is hearsay too: replicas the access node has itself watched
        # fail since are stepped over, not probed again.
        return tuple(self.node.unsuspected(contacts)) or None

    def _remember_route(self, key: NodeID, contacts: Sequence[Contact]) -> None:
        if not contacts:
            return
        if key in self._routes:
            del self._routes[key]
        elif len(self._routes) >= ROUTE_CACHE_SIZE:
            self._routes.popitem(last=False)
        self._routes[key] = (tuple(contacts), self._now())

    def invalidate_route(self, key: NodeID) -> None:
        if self._routes.pop(key, None) is not None:
            self.stats.route_invalidations += 1

    def clear_routes(self) -> None:
        self._routes.clear()

    @property
    def cached_routes(self) -> int:
        return len(self._routes)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def retrieve(self, key: NodeID, top_n: int | None = None) -> tuple[Any, LookupOutcome]:
        """GET through the route cache; mirrors ``KademliaNode.retrieve``."""
        self.stats.requests += 1
        return self._retrieve_one(key, top_n, seeds=None)

    def retrieve_many(
        self, keys: Sequence[NodeID], top_n: int | None = None
    ) -> list[tuple[Any, LookupOutcome]]:
        """GET a batch of keys, deduplicating and coalescing lookups.

        Results are returned in request order.  Duplicate keys resolve once;
        unique keys are processed in XOR-space order so that consecutive
        near keys can seed each other's lookups.
        """
        self.stats.requests += len(keys)
        resolved: dict[NodeID, tuple[Any, LookupOutcome]] = {}
        unique: list[NodeID] = []
        for key in keys:
            if key in resolved or key in unique:
                continue
            unique.append(key)
        self.stats.dedup_hits += len(keys) - len(unique)

        # NodeID orders by value, so the bare sort matches the keyed sort
        # without allocating a key lambda per batch.
        unique.sort()
        previous: tuple[NodeID, tuple[Contact, ...]] | None = None
        for key in unique:
            seeds: list[Contact] | None = None
            if previous is not None:
                prev_key, prev_contacts = previous
                shift = 160 - COALESCE_BITS
                if (key.value >> shift) == (prev_key.value >> shift) and prev_contacts:
                    seeds = list(prev_contacts)
                    self.stats.seeded_lookups += 1
            value, outcome = self._retrieve_one(key, top_n, seeds=seeds)
            resolved[key] = (value, outcome)
            if outcome.closest:
                previous = (key, tuple(outcome.closest))

        results: list[tuple[Any, LookupOutcome]] = []
        emitted: set[NodeID] = set()
        for key in keys:
            value, outcome = resolved[key]
            if key in emitted:
                # A deduplicated request shares the value but must not
                # re-charge the shared lookup's messages.
                shared = LookupOutcome(target=key)
                shared.value = outcome.value
                shared.found_value = outcome.found_value
                shared.closest = outcome.closest
                results.append((value, shared))
            else:
                emitted.add(key)
                results.append((value, outcome))
        return results

    def _retrieve_one(
        self, key: NodeID, top_n: int | None, seeds: list[Contact] | None
    ) -> tuple[Any, LookupOutcome]:
        node = self.node
        # The access node may hold the key itself (it answers locally, exactly
        # like KademliaNode.lookup_value does).
        local = node.storage.get(key, top_n=top_n)
        if local is not None:
            self.stats.local_hits += 1
            outcome = LookupOutcome(target=key)
            outcome.value = local
            outcome.found_value = True
            return node.unwrap_value(local), outcome

        route = self._cached_route(key)
        if route is not None:
            outcome = LookupOutcome(target=key)
            for contact in route[: node.config.replicate]:
                outcome.messages += 1
                reply = node.query(contact, key, True, top_n)
                if reply is None:
                    outcome.failures += 1
                    continue
                _, value = reply
                if value is not None:
                    outcome.value = value
                    outcome.found_value = True
                    outcome.closest = list(route)
                    self.stats.route_hits += 1
                    return node.unwrap_value(value), outcome
            # The cached replicas answered "not found" or not at all: the
            # route is stale (or the value genuinely absent) -- drop it and
            # resolve with a full lookup so correctness never depends on the
            # cache.
            self.invalidate_route(key)
            self.stats.route_fallbacks += 1
            fallback_value, fallback_outcome = self._full_retrieve(key, top_n, seeds)
            fallback_outcome.messages += outcome.messages
            fallback_outcome.failures += outcome.failures
            return fallback_value, fallback_outcome

        return self._full_retrieve(key, top_n, seeds)

    def _full_retrieve(
        self, key: NodeID, top_n: int | None, seeds: list[Contact] | None
    ) -> tuple[Any, LookupOutcome]:
        node = self.node
        self.stats.full_lookups += 1
        if seeds is None:
            outcome = node.lookup_value(key, top_n=top_n)
        else:
            node.note_lookup(key)
            merged: dict[NodeID, Contact] = {c.node_id: c for c in seeds}
            for contact in node.routing_table.closest_contacts(key, node.config.alpha):
                merged.setdefault(contact.node_id, contact)
            outcome = iterative_lookup(
                transport=node,
                target=key,
                seeds=list(merged.values()),
                k=node.config.k,
                alpha=node.config.alpha,
                find_value=True,
                top_n=top_n,
            )
        # Only remember routes that located a value: caching the replica set
        # of an *absent* key would make every later read of it probe useless
        # replicas before falling back, i.e. strictly worse than the seed.
        if outcome.found_value and outcome.closest:
            self._remember_route(key, outcome.closest)
        return node.unwrap_value(outcome.value), outcome

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _route_write(
        self,
        key: NodeID,
        write_at: Callable[[list[Contact]], int],
        write_full: Callable[[], LookupOutcome],
    ) -> LookupOutcome:
        """Write through the cached route of *key* when there is one.

        All replicas accept: a route hit.  Some accept: still a route hit --
        the write landed, and re-sending it would apply an APPEND twice
        (counter updates are not idempotent) -- but the route is dropped so
        the next operation re-resolves live replicas instead of degrading
        the replication factor further.  None accept (or no route): the full
        lookup-and-walk write of the node, whose replica set becomes the
        route.
        """
        self.stats.requests += 1
        route = self._cached_route(key)
        if route is not None:
            targets = list(route[: self.node.config.replicate])
            accepted = write_at(targets)
            if accepted < len(targets):
                self.invalidate_route(key)
            if accepted:
                self.stats.route_hits += 1
                outcome = LookupOutcome(target=key)
                outcome.closest = list(route)
                outcome.accepted_replicas = accepted
                return outcome
            self.stats.route_fallbacks += 1
        self.stats.full_lookups += 1
        outcome = write_full()
        self._remember_route(key, outcome.closest)
        return outcome

    def store(self, key: NodeID, value: Any, identity: Identity | None = None) -> LookupOutcome:
        """PUT through the route cache; mirrors ``KademliaNode.store``."""
        node = self.node
        return self._route_write(
            key,
            lambda targets: node.store_at(targets, key, value, identity=identity),
            lambda: node.store(key, value, identity=identity),
        )

    def append(
        self,
        key: NodeID,
        owner: str,
        block_type: BlockType,
        increments: dict[str, int],
        increments_if_new: dict[str, int] | None = None,
    ) -> LookupOutcome:
        """APPEND through the route cache; mirrors ``KademliaNode.append``."""
        node = self.node
        return self._route_write(
            key,
            lambda targets: node.append_at(
                targets, key, owner, block_type, increments, increments_if_new=increments_if_new
            ),
            lambda: node.append(
                key, owner, block_type, increments, increments_if_new=increments_if_new
            ),
        )
