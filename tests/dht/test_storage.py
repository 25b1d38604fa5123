"""Unit tests for the per-node storage (token appends, index-side filtering)."""

import pytest

from repro.core.blocks import BlockKey, BlockType
from repro.dht.node_id import NodeID
from repro.dht.storage import LocalStorage


def key_of(name: str, block_type: BlockType) -> NodeID:
    return NodeID.from_bytes(BlockKey(name, block_type).digest())


class TestOpaqueValues:
    def test_put_get_delete(self):
        storage = LocalStorage()
        key = NodeID.hash_of("k")
        assert storage.get(key) is None
        storage.put(key, {"hello": "world"})
        assert storage.get(key) == {"hello": "world"}
        assert key in storage
        assert len(storage) == 1
        assert storage.delete(key)
        assert not storage.delete(key)
        assert storage.get(key) is None

    def test_put_replaces_value(self):
        storage = LocalStorage()
        key = NodeID.hash_of("k")
        storage.put(key, 1)
        storage.put(key, 2)
        assert storage.get(key) == 2

    def test_keys_iteration(self):
        storage = LocalStorage()
        keys = [NodeID.hash_of(str(i)) for i in range(3)]
        for key in keys:
            storage.put(key, "x")
        assert set(storage.keys()) == set(keys)


class TestCounterAppend:
    def test_append_creates_block_on_first_touch(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        size = storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        assert size == 1
        block = storage.counter_block(key)
        assert block.get("pop") == 1
        assert block.owner == "rock"

    def test_append_accumulates(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 2})
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 3, "jazz": 1})
        block = storage.counter_block(key)
        assert block.get("pop") == 5
        assert block.get("jazz") == 1

    def test_append_if_new_uses_alternate_value_only_for_new_entries(self):
        """The storage-side half of Approximation B."""
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        # "pop" is new: gets the if-new value (1) instead of the exact 5.
        storage.append(
            key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 5}, increments_if_new={"pop": 1}
        )
        assert storage.counter_block(key).get("pop") == 1
        # Second time "pop" exists: the exact increment applies.
        storage.append(
            key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 5}, increments_if_new={"pop": 1}
        )
        assert storage.counter_block(key).get("pop") == 6

    def test_append_accepts_string_block_type(self):
        storage = LocalStorage()
        key = key_of("r1", BlockType.RESOURCE_TAGS)
        storage.append(key, "r1", "1", {"rock": 1})
        assert storage.counter_block(key).get("rock") == 1

    def test_append_rejects_uri_block_type(self):
        storage = LocalStorage()
        with pytest.raises(ValueError):
            storage.append(NodeID.hash_of("x"), "x", BlockType.RESOURCE_URI, {"a": 1})

    def test_append_rejects_nonpositive_increments(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        with pytest.raises(ValueError):
            storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 0})
        with pytest.raises(ValueError):
            storage.append(
                key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1}, increments_if_new={"pop": 0}
            )

    def test_append_rejects_metadata_mismatch(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        with pytest.raises(ValueError):
            storage.append(key, "other-owner", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        with pytest.raises(ValueError):
            storage.append(key, "rock", BlockType.TAG_RESOURCES, {"pop": 1})

    def test_append_rejects_non_counter_value(self):
        storage = LocalStorage()
        key = NodeID.hash_of("opaque")
        storage.put(key, "just a string")
        with pytest.raises(ValueError):
            storage.append(key, "opaque", BlockType.TAG_NEIGHBOURS, {"pop": 1})

    def test_concurrent_style_appends_commute(self):
        """Two interleaved publishers converge to the same block state
        regardless of order."""
        def run(order):
            storage = LocalStorage()
            key = key_of("rock", BlockType.TAG_NEIGHBOURS)
            for increments in order:
                storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, increments)
            return storage.counter_block(key).entries

        ops = [{"pop": 1}, {"jazz": 2}, {"pop": 3, "metal": 1}]
        assert run(ops) == run(list(reversed(ops)))


class TestMergeOnStore:
    """A STORE of a counter payload merges entry-wise (max), never replaces."""

    def test_store_merges_counter_payload_entrywise_max(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.put(key, {"owner": "rock", "type": "3", "entries": {"pop": 5, "jazz": 2}})
        storage.put(key, {"owner": "rock", "type": "3", "entries": {"pop": 3, "metal": 4}})
        assert storage.counter_block(key).entries == {"pop": 5, "jazz": 2, "metal": 4}

    def test_stale_snapshot_cannot_erase_concurrent_appends(self):
        """The republish data-loss bug: a snapshot taken before APPENDs landed
        arrives at the replica afterwards -- the appends must survive."""
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 2})
        snapshot = storage.get(key)  # republisher reads the block here...
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 3, "jazz": 1})
        storage.put(key, snapshot)  # ...and the stale STORE lands after them
        block = storage.counter_block(key)
        assert block.get("pop") == 5
        assert block.get("jazz") == 1

    def test_store_replaces_on_owner_or_type_mismatch(self):
        storage = LocalStorage()
        key = NodeID.hash_of("collision")
        storage.put(key, {"owner": "rock", "type": "3", "entries": {"pop": 5}})
        storage.put(key, {"owner": "other", "type": "3", "entries": {"pop": 1}})
        assert storage.get(key)["entries"] == {"pop": 1}
        storage.put(key, {"owner": "other", "type": "2", "entries": {"pop": 2}})
        assert storage.get(key)["type"] == "2"

    def test_merge_still_counts_as_a_write(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.put(key, {"owner": "rock", "type": "3", "entries": {"pop": 1}}, now=1.0)
        storage.put(key, {"owner": "rock", "type": "3", "entries": {"pop": 2}}, now=2.0)
        record = storage._items[key]
        assert record.writes == 2
        assert record.stored_at == 2.0


class TestCopyAtBoundary:
    """Counter payloads never alias mutable state across the RPC boundary."""

    def test_put_copies_the_incoming_payload(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        payload = {"owner": "rock", "type": "3", "entries": {"pop": 1}}
        storage.put(key, payload)
        payload["entries"]["pop"] = 99  # sender keeps mutating its dict
        assert storage.counter_block(key).get("pop") == 1

    def test_get_returns_a_copy(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        retrieved = storage.get(key)
        retrieved["entries"]["pop"] = 99
        assert storage.counter_block(key).get("pop") == 1

    def test_snapshot_is_frozen_against_later_appends(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        snapshot = storage.items_snapshot()
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 4})
        assert snapshot[key]["entries"] == {"pop": 1}

    def test_replicas_do_not_share_entries_after_wire_transfer(self):
        """One replica's APPEND must not mutate another replica's block."""
        a, b = LocalStorage(), LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        a.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1})
        for k, value in a.items_snapshot().items():
            b.put(k, value)  # simulated republication
        b.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 7})
        assert a.counter_block(key).get("pop") == 1
        assert b.counter_block(key).get("pop") == 8


class TestIndexSideFiltering:
    def test_get_top_n_truncates_counter_blocks(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(
            key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 5, "jazz": 1, "metal": 9, "folk": 2}
        )
        payload = storage.get(key, top_n=2)
        assert payload["truncated"] is True
        assert set(payload["entries"]) == {"metal", "pop"}
        # The stored block itself is not truncated.
        assert len(storage.counter_block(key).entries) == 4

    def test_get_top_n_leaves_small_blocks_untouched(self):
        storage = LocalStorage()
        key = key_of("rock", BlockType.TAG_NEIGHBOURS)
        storage.append(key, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 5})
        payload = storage.get(key, top_n=10)
        assert "truncated" not in payload

    def test_get_top_n_ignores_opaque_values(self):
        storage = LocalStorage()
        key = NodeID.hash_of("opaque")
        storage.put(key, [1, 2, 3, 4, 5])
        assert storage.get(key, top_n=1) == [1, 2, 3, 4, 5]


class TestIntrospection:
    def test_total_entries_and_snapshot(self):
        storage = LocalStorage()
        k1 = key_of("rock", BlockType.TAG_NEIGHBOURS)
        k2 = key_of("r1", BlockType.RESOURCE_TAGS)
        storage.append(k1, "rock", BlockType.TAG_NEIGHBOURS, {"pop": 1, "jazz": 1})
        storage.append(k2, "r1", BlockType.RESOURCE_TAGS, {"rock": 1})
        storage.put(NodeID.hash_of("opaque"), "v")
        assert storage.total_entries() == 3
        snapshot = storage.items_snapshot()
        assert len(snapshot) == 3

    def test_counter_block_returns_none_for_missing_or_opaque(self):
        storage = LocalStorage()
        assert storage.counter_block(NodeID.hash_of("missing")) is None
        key = NodeID.hash_of("opaque")
        storage.put(key, "text")
        assert storage.counter_block(key) is None


class TestDominatedStores:
    """``dominated_at``: when a remote STORE left exactly its payload here."""

    KEY = NodeID.hash_of("k")

    @staticmethod
    def block(**entries):
        return {"owner": "rock", "type": "3", "entries": entries}

    def stamped(self, resident, incoming, remote=True):
        storage = LocalStorage()
        storage.put(self.KEY, resident, now=1.0)
        storage.put(self.KEY, incoming, now=2.0, remote=remote)
        return storage.records_snapshot()[self.KEY].dominated_at

    def test_a_dominating_counter_store_stamps(self):
        assert self.stamped(self.block(pop=1), self.block(pop=1)) == 2.0
        assert self.stamped(self.block(pop=1), self.block(pop=2, jazz=1)) == 2.0

    def test_a_store_missing_or_lowering_an_entry_does_not_stamp(self):
        assert self.stamped(self.block(pop=1, jazz=1), self.block(pop=2)) is None
        assert self.stamped(self.block(pop=3), self.block(pop=2)) is None

    def test_an_opaque_store_always_stamps_and_a_local_put_never(self):
        assert self.stamped("old", "new") == 2.0
        assert self.stamped("old", "new", remote=False) is None

    def test_items_snapshot_leaves_out_keys_dominated_after_since(self):
        storage = LocalStorage()
        storage.put(self.KEY, "a", now=5.0, remote=True)
        storage.put(NodeID.hash_of("other"), "b", now=5.0)
        assert len(storage.items_snapshot(since=4.0)) == 1
        assert len(storage.items_snapshot(since=5.0)) == 2
        assert len(storage.items_snapshot()) == 2
