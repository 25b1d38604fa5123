"""Per-node key/value storage with DHARMA's block semantics.

Every overlay node stores the blocks whose keys fall in its responsibility
region.  Two classes of values are handled:

* **opaque values** (e.g. the ``r̃`` URI block, or arbitrary application
  payloads) -- stored and replaced wholesale by STORE;
* **counter blocks** (``r̄``, ``t̄``, ``t̂``) -- updated through APPEND, i.e.
  sets of ``entry -> +delta`` increments that commute, so concurrent updates
  from different users cannot be lost or double-applied by the storage layer
  itself (Approximation B removes the remaining read-modify-write from the
  *protocol* level).

A STORE whose payload *is* a counter block does **not** replace wholesale
either: it merges entry-wise, keeping the per-entry maximum.  Counter entries
are monotone (APPEND only ever increments), so a republished snapshot is
always a *lower bound* on the live block and ``max`` is the correct join --
a stale snapshot arriving after concurrent APPENDs can never erase them.
This is what makes replica maintenance under churn safe: crashed replicas
are restored from surviving copies with plain STOREs.

A STORE from another node that leaves the replica holding exactly what it
brought -- an opaque value, or a counter block none of whose resident
entries exceeds the incoming one -- stamps the record's
:attr:`StoredValue.dominated_at`: a peer has just republished this copy,
so the replica's own next republish pass may skip it (Kademlia §2.5).

Counter payloads are copied at every boundary (STORE in, GET out,
:meth:`LocalStorage.items_snapshot`), so a simulated "wire" transfer or a
republication never aliases the same mutable ``entries`` dict across
replicas and caches.

The storage also implements the *index-side filtering* of Section V-A: a GET
may ask for only the top-``n`` heaviest entries of a counter block, modelling
the UDP payload bound of overlay messages for very popular tags.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import BlockType, CounterBlock, block_for_type
from repro.dht.node_id import NodeID

__all__ = ["StoredValue", "LocalStorage", "is_counter_payload", "merge_counter_entries"]


@dataclass(slots=True)
class StoredValue:
    """A value held by one node, with bookkeeping metadata."""

    value: Any
    stored_at: float = 0.0
    writes: int = 0
    reads: int = 0
    #: When a STORE from another node last brought a payload that dominated
    #: this copy (``None``: never); the republish skip reads it.
    dominated_at: float | None = None


class LocalStorage:
    """The key/value store of a single overlay node."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: dict[NodeID, StoredValue] = {}

    # -- basic operations -------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: NodeID) -> bool:
        return key in self._items

    def keys(self) -> Iterator[NodeID]:
        return iter(self._items)

    def put(self, key: NodeID, value: Any, now: float = 0.0, remote: bool = False) -> None:
        """Store *value* under *key*.

        Opaque values replace whatever was stored.  Counter-block payloads
        merge entry-wise with the resident block of the same owner/type,
        keeping the per-entry maximum: counters are monotone, so the higher
        value is always the more recent one and a stale republished snapshot
        can never undo concurrent APPENDs.

        A *remote* STORE (one another node sent) whose payload dominates the
        resident copy stamps ``dominated_at = now``; a stale snapshot that
        left some resident entry higher stamps nothing.
        """
        # Counter payloads are copied when retained (never when merely
        # merged from), so the store can't alias the sender's mutable dicts.
        is_counter = _is_counter_payload(value)
        record = self._items.get(key)
        if record is None:
            if is_counter:
                value = _copy_counter_payload(value)
            self._items[key] = StoredValue(
                value=value, stored_at=now, writes=1, dominated_at=now if remote else None
            )
            return
        if (
            is_counter
            and _is_counter_payload(record.value)
            and record.value.get("type") == value.get("type")
            and record.value.get("owner") == value.get("owner")
        ):
            dominated = merge_counter_entries(record.value["entries"], value["entries"])
        else:
            record.value = _copy_counter_payload(value) if is_counter else value
            dominated = True
        if remote and dominated:
            record.dominated_at = now
        record.stored_at = now
        record.writes += 1

    def get(self, key: NodeID, top_n: int | None = None) -> Any | None:
        """Return the value stored under *key*, or ``None``.

        When the value is a counter-block payload and *top_n* is given, only
        the *top_n* heaviest entries are returned (index-side filtering).  The
        stored block itself is never truncated.

        Counter payloads are returned as copies: what crosses the RPC
        boundary must not alias the replica's mutable ``entries`` dict, or
        one replica's APPEND would silently mutate caches and other replicas.
        """
        record = self._items.get(key)
        if record is None:
            return None
        record.reads += 1
        value = record.value
        if not _is_counter_payload(value):
            return value
        if top_n is not None:
            entries = value["entries"]
            if len(entries) > top_n:
                top = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
                return {**value, "entries": dict(top), "truncated": True}
        return _copy_counter_payload(value)

    def delete(self, key: NodeID) -> bool:
        """Remove *key*; returns True if it was present."""
        return self._items.pop(key, None) is not None

    def merge_compatible(self, key: NodeID, value: Any) -> bool:
        """True when a STORE of *value* would merge monotonically.

        That is: *value* is a counter payload and either nothing resides
        under *key* yet or the resident block has the same owner/type, so
        :meth:`put` takes the entry-wise-max branch and cannot destroy
        resident state.  This is the predicate credential enforcement uses
        to decide which *unsigned* STOREs are safe to accept (honest replica
        maintenance republishes counter snapshots unsigned; everything that
        would *replace* resident state wholesale must carry a credential).
        """
        if not _is_counter_payload(value):
            return False
        record = self._items.get(key)
        if record is None:
            return True
        return (
            _is_counter_payload(record.value)
            and record.value.get("type") == value.get("type")
            and record.value.get("owner") == value.get("owner")
        )

    # -- counter-block append ------------------------------------------------ #

    def append(
        self,
        key: NodeID,
        owner: str,
        block_type: BlockType | str,
        increments: dict[str, int],
        now: float = 0.0,
        increments_if_new: dict[str, int] | None = None,
    ) -> int:
        """Apply *increments* to the counter block stored under *key*.

        The block is created on first touch.  When *increments_if_new* is
        given, an entry that is not yet present in the block receives the
        value from that mapping instead of the one in *increments* (falling
        back to *increments* when the entry is missing from both); this is the
        storage-side half of Approximation B.  Returns the number of distinct
        entries in the block after the update.
        """
        if isinstance(block_type, str):
            block_type = BlockType(block_type)
        if not block_type.is_counter:
            raise ValueError(f"append is only valid for counter blocks, not {block_type}")
        for entry, delta in increments.items():
            if delta < 1:
                raise ValueError(f"increment for {entry!r} must be >= 1, got {delta}")
        if increments_if_new:
            for entry, delta in increments_if_new.items():
                if delta < 1:
                    raise ValueError(
                        f"new-entry increment for {entry!r} must be >= 1, got {delta}"
                    )

        record = self._items.get(key)
        if record is None:
            block = block_for_type(block_type, owner)
            record = StoredValue(value=block.to_payload(), stored_at=now)
            self._items[key] = record
        payload = record.value
        if not _is_counter_payload(payload):
            raise ValueError(f"key {key!r} does not hold a counter block")
        if payload.get("type") != block_type.value or payload.get("owner") != owner:
            raise ValueError(
                "append block metadata mismatch: "
                f"stored ({payload.get('owner')!r}, {payload.get('type')!r}) vs "
                f"request ({owner!r}, {block_type.value!r})"
            )
        entries: dict[str, int] = payload["entries"]
        for entry, delta in increments.items():
            if entry not in entries and increments_if_new is not None:
                delta = increments_if_new.get(entry, delta)
            entries[entry] = entries.get(entry, 0) + delta
        record.writes += 1
        record.stored_at = now
        return len(entries)

    # -- introspection -------------------------------------------------------- #

    def counter_block(self, key: NodeID) -> CounterBlock | None:
        """Materialise the counter block stored under *key*, if any."""
        record = self._items.get(key)
        if record is None or not _is_counter_payload(record.value):
            return None
        payload = record.value
        block = block_for_type(BlockType(payload["type"]), payload["owner"])
        assert isinstance(block, CounterBlock)
        for entry, count in payload["entries"].items():
            if count:
                block.entries[entry] = count
        return block

    def total_entries(self) -> int:
        """Sum of entry counts across all stored counter blocks (load proxy)."""
        total = 0
        for record in self._items.values():
            if _is_counter_payload(record.value):
                total += len(record.value["entries"])
        return total

    def items_snapshot(self, since: float | None = None) -> dict[NodeID, Any]:
        """Every stored value, keyed by block key (for republication); with
        *since*, only those no remote STORE dominated after that time.

        Counter payloads are copied so the snapshot stays immutable while the
        node keeps applying APPENDs -- a republished snapshot must be a frozen
        lower bound, not a live alias of the replica's entries dict.
        """
        return {
            key: _copy_counter_payload(record.value)
            if _is_counter_payload(record.value)
            else record.value
            for key, record in self._items.items()
            if since is None or record.dominated_at is None or record.dominated_at <= since
        }

    # -- snapshot/restore --------------------------------------------------- #

    def records_snapshot(self) -> dict[NodeID, StoredValue]:
        """Every stored record *including its metadata*, in insertion order.

        Counter payloads are copied (same aliasing rule as
        :meth:`items_snapshot`); the :class:`StoredValue` wrappers are fresh
        objects, so mutating the snapshot cannot touch the live store.
        """
        return {
            key: StoredValue(
                value=_copy_counter_payload(record.value)
                if _is_counter_payload(record.value)
                else record.value,
                stored_at=record.stored_at,
                writes=record.writes,
                reads=record.reads,
                dominated_at=record.dominated_at,
            )
            for key, record in self._items.items()
        }

    def restore_record(
        self,
        key: NodeID,
        value: Any,
        stored_at: float = 0.0,
        writes: int = 0,
        reads: int = 0,
        dominated_at: float | None = None,
    ) -> None:
        """Re-insert one exported record verbatim (no merge semantics).

        Used by snapshot restore, where the incoming value *is* the
        authoritative replica state; dict insertion order of successive
        calls reproduces the original store's iteration order, which
        republication and audits depend on for determinism.
        """
        if _is_counter_payload(value):
            value = _copy_counter_payload(value)
        self._items[key] = StoredValue(
            value=value,
            stored_at=stored_at,
            writes=writes,
            reads=reads,
            dominated_at=dominated_at,
        )


_COUNTER_TYPE_VALUES = frozenset(bt.value for bt in BlockType if bt.is_counter)


def is_counter_payload(value: Any) -> bool:
    """True when *value* is the wire payload of a counter block (types 1-3).

    The single definition shared by the storage layer and everything that
    must agree with its merge semantics (republication, survival audits).
    """
    return (
        isinstance(value, dict)
        and "entries" in value
        and value.get("type") in _COUNTER_TYPE_VALUES
    )


def merge_counter_entries(resident: dict[str, int], incoming: dict[str, int]) -> bool:
    """Fold *incoming* into *resident* entry-wise, keeping the maximum.

    Counter entries are monotone, so ``max`` is the join replicas converge
    under; this is the exact operation a merge-aware STORE applies.  Returns
    True when *incoming* dominated *resident* (no resident entry exceeded
    it), i.e. when *resident* now equals *incoming*.
    """
    dominated = True
    for entry, count in incoming.items():
        held = resident.get(entry, 0)
        if count > held:
            resident[entry] = count
        elif count < held:
            dominated = False
    # Every incoming entry is resident now, so equal sizes mean no resident
    # entry was missing from *incoming*.
    return dominated and len(resident) == len(incoming)


_is_counter_payload = is_counter_payload


def _copy_counter_payload(value: dict[str, Any]) -> dict[str, Any]:
    """A copy of a counter payload that shares no mutable state."""
    return {**value, "entries": dict(value["entries"])}
