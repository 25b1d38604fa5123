"""The PUT/GET/APPEND facade with overlay-lookup accounting.

The DHARMA cost model (Table I) counts *overlay lookups*: retrieving or
modifying one block costs exactly one lookup, because the overlay exposes
PUT and GET primitives built on the lookup service and block updates are
commutative token additions.  :class:`DHTClient` is the thin layer that the
distributed protocols program against; it

* maps :class:`~repro.core.blocks.BlockKey` objects onto the 160-bit key space,
* delegates to a :class:`~repro.dht.node.KademliaNode` (any node can act as
  the access point),
* and maintains :class:`LookupStats`, the counters every experiment reads.

Keeping the accounting here (rather than inside the protocols) guarantees
that the naive and the approximated protocols are measured with exactly the
same yardstick.  Bytes on the wire are not counted here but by the node's
transport (:class:`~repro.net.base.TransportStats`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import BlockKey, BlockType, CounterBlock, block_for_type
from repro.dht.batched_lookup import BatchedLookupEngine
from repro.dht.likir import Identity
from repro.dht.node import KademliaNode
from repro.dht.node_id import NodeID

__all__ = ["LookupStats", "DHTClient"]


@dataclass(slots=True)
class LookupStats:
    """Counters of overlay activity attributable to one client."""

    #: Overlay lookups as defined by the paper's cost model (one per PUT/GET/
    #: APPEND issued by the application layer).
    lookups: int = 0
    puts: int = 0
    gets: int = 0
    appends: int = 0
    #: RPC messages actually sent on the wire by the underlying iterative
    #: lookups (a finer-grained measure than `lookups`).
    rpc_messages: int = 0
    #: GETs that failed to locate the key.
    misses: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.puts = 0
        self.gets = 0
        self.appends = 0
        self.rpc_messages = 0
        self.misses = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "lookups": self.lookups,
            "puts": self.puts,
            "gets": self.gets,
            "appends": self.appends,
            "rpc_messages": self.rpc_messages,
            "misses": self.misses,
        }


class DHTClient:
    """Application-level access point to the overlay.

    When a :class:`~repro.dht.batched_lookup.BatchedLookupEngine` is supplied,
    every primitive routes through it (route caching, in-flight dedup, round
    coalescing); without one the client talks to the node directly, which is
    the seed behaviour.  Either way each application-level PUT/GET/APPEND
    still counts as exactly one overlay lookup in :class:`LookupStats` -- the
    engine changes how many *RPC messages* a lookup costs, not the paper's
    lookup arithmetic.
    """

    def __init__(
        self,
        node: KademliaNode,
        identity: Identity | None = None,
        engine: BatchedLookupEngine | None = None,
    ) -> None:
        if engine is not None and engine.node is not node:
            raise ValueError("the lookup engine must wrap the client's access node")
        self.node = node
        self.identity = identity
        self.engine = engine
        self.stats = LookupStats()

    # ------------------------------------------------------------------ #
    # key mapping
    # ------------------------------------------------------------------ #

    @staticmethod
    def key_for(block_key: BlockKey) -> NodeID:
        """Map a block key onto the Kademlia identifier space."""
        return NodeID.from_bytes(block_key.digest())

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #

    def put(self, block_key: BlockKey, value: Any) -> None:
        """Store an opaque value under *block_key* (one overlay lookup)."""
        key = self.key_for(block_key)
        if self.engine is not None:
            outcome = self.engine.store(key, value, identity=self.identity)
        else:
            outcome = self.node.store(key, value, identity=self.identity)
        self.stats.puts += 1
        self.stats.lookups += 1
        self.stats.rpc_messages += outcome.messages

    def append(
        self,
        block_key: BlockKey,
        increments: dict[str, int],
        increments_if_new: dict[str, int] | None = None,
    ) -> None:
        """Apply counter increments to the block at *block_key* (one lookup).

        *increments_if_new* carries the per-entry value to use when the entry
        does not exist yet (Approximation B's storage-side rule).
        """
        if not block_key.block_type.is_counter:
            raise ValueError("append is only valid for counter blocks")
        if not increments:
            return
        key = self.key_for(block_key)
        if self.engine is not None:
            outcome = self.engine.append(
                key,
                owner=block_key.name,
                block_type=block_key.block_type,
                increments=increments,
                increments_if_new=increments_if_new,
            )
        else:
            outcome = self.node.append(
                key=key,
                owner=block_key.name,
                block_type=block_key.block_type,
                increments=increments,
                increments_if_new=increments_if_new,
            )
        self.stats.appends += 1
        self.stats.lookups += 1
        self.stats.rpc_messages += outcome.messages

    def get(self, block_key: BlockKey, top_n: int | None = None) -> Any | None:
        """Retrieve the raw value stored under *block_key* (one lookup)."""
        key = self.key_for(block_key)
        if self.engine is not None:
            value, outcome = self.engine.retrieve(key, top_n=top_n)
        else:
            value, outcome = self.node.retrieve(key, top_n=top_n)
        self.stats.gets += 1
        self.stats.lookups += 1
        self.stats.rpc_messages += outcome.messages
        if value is None:
            self.stats.misses += 1
        return value

    def get_many(self, block_keys: Sequence[BlockKey], top_n: int | None = None) -> list[Any | None]:
        """Retrieve several blocks in one batch (one lookup charged per key).

        With an engine the batch shares lookup rounds (dedup + coalescing);
        without one it degrades to sequential :meth:`get` calls, so callers
        can always use the batch form.
        """
        if self.engine is None:
            return [self.get(block_key, top_n=top_n) for block_key in block_keys]
        keys = [self.key_for(block_key) for block_key in block_keys]
        results = self.engine.retrieve_many(keys, top_n=top_n)
        values: list[Any | None] = []
        for value, outcome in results:
            self.stats.gets += 1
            self.stats.lookups += 1
            self.stats.rpc_messages += outcome.messages
            if value is None:
                self.stats.misses += 1
            values.append(value)
        return values

    # ------------------------------------------------------------------ #
    # typed helpers for DHARMA blocks
    # ------------------------------------------------------------------ #

    def get_counter_block(
        self, block_key: BlockKey, top_n: int | None = None
    ) -> CounterBlock | None:
        """GET a counter block and materialise it (None when absent)."""
        payload = self.get(block_key, top_n=top_n)
        if payload is None:
            return None
        block = block_for_type(BlockType(payload["type"]), payload["owner"])
        assert isinstance(block, CounterBlock)
        for entry, count in payload["entries"].items():
            if count:
                block.entries[entry] = count
        return block

    def get_entries(
        self, block_key: BlockKey, top_n: int | None = None
    ) -> dict[str, int]:
        """GET a counter block's entries as a plain dict ({} when absent)."""
        block = self.get_counter_block(block_key, top_n=top_n)
        return dict(block.entries) if block is not None else {}

    def get_entries_many(
        self, block_keys: Sequence[BlockKey], top_n: int | None = None
    ) -> list[dict[str, int]]:
        """Batch form of :meth:`get_entries`, preserving request order."""
        entries: list[dict[str, int]] = []
        for payload in self.get_many(block_keys, top_n=top_n):
            if payload is None:
                entries.append({})
            else:
                entries.append({e: c for e, c in payload["entries"].items() if c})
        return entries
