"""The compact routing table is behaviourally identical to the legacy one.

`CompactRoutingTable` re-implements `RoutingTable` over lazily allocated,
array-backed buckets with a bucket-ordered k-closest selection.  Its whole
value rests on being indistinguishable through the public contract, so these
tests drive both implementations through randomized operation sequences
(record / evict / closest / export / restore) and require every observable
to match exactly, plus pin the compact-specific properties (lazy bucket
allocation, the table every node builds).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.node_id import ID_BITS, NodeID, NodeIDInterner
from repro.dht.routing_table import (
    CompactKBucket,
    CompactRoutingTable,
    Contact,
    KBucket,
    RoutingTable,
)


def random_contact(rng: random.Random, tag: int) -> Contact:
    return Contact(NodeID.random(rng), f"addr-{tag}")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    @pytest.mark.parametrize("k", [2, 4, 20])
    def test_operation_sequences_match(self, seed, k):
        rng = random.Random(seed)
        owner = NodeID.random(rng)
        legacy = RoutingTable(owner, k=k)
        compact = CompactRoutingTable(owner, k=k)

        population = [random_contact(rng, i) for i in range(300)]
        # Include the owner itself: both must special-case it identically.
        population.append(Contact(owner, "addr-owner"))

        for step in range(1500):
            op = rng.random()
            contact = population[rng.randrange(len(population))]
            if op < 0.60:
                # Re-recording under a fresh address exercises the
                # refresh-adopts-new-record path.
                if rng.random() < 0.2:
                    contact = Contact(contact.node_id, f"addr-new-{step}")
                assert legacy.record_contact(contact) == compact.record_contact(
                    contact
                ), f"record diverged at step {step}"
            elif op < 0.80:
                legacy.evict(contact.node_id)
                compact.evict(contact.node_id)
            else:
                target = NodeID.random(rng)
                count = rng.choice([None, 1, 3, k, 2 * k, 100])
                assert legacy.closest_contacts(target, count) == compact.closest_contacts(
                    target, count
                ), f"closest diverged at step {step}"
            if contact.node_id != owner:
                assert legacy.least_recently_seen(
                    contact.node_id
                ) == compact.least_recently_seen(contact.node_id)

        assert len(legacy) == len(compact)
        assert list(legacy.contacts()) == list(compact.contacts())
        assert legacy.bucket_utilisation() == compact.bucket_utilisation()
        assert legacy.export_buckets() == compact.export_buckets()
        for contact in population:
            assert (contact.node_id in legacy) == (contact.node_id in compact)

    def test_export_restores_across_implementations(self):
        rng = random.Random(42)
        owner = NodeID.random(rng)
        legacy = RoutingTable(owner, k=4)
        for i in range(200):
            legacy.record_contact(random_contact(rng, i))

        compact = CompactRoutingTable(owner, k=4)
        compact.restore_buckets(legacy.export_buckets())
        assert compact.export_buckets() == legacy.export_buckets()

        # And back: the exported state round-trips through either class.
        legacy_again = RoutingTable(owner, k=4)
        legacy_again.restore_buckets(compact.export_buckets())
        assert legacy_again.export_buckets() == legacy.export_buckets()

    def test_replacement_cache_promotion_matches(self):
        rng = random.Random(9)
        owner = NodeID(0)
        legacy = KBucket(k=3)
        compact = CompactKBucket(k=3)
        contacts = [random_contact(rng, i) for i in range(12)]
        for contact in contacts:
            assert legacy.record_contact(contact) == compact.record_contact(contact)
        assert legacy.replacement_candidates() == compact.replacement_candidates()
        # Evicting live members must promote the same (most recent) cached
        # replacements in the same order.
        for contact in contacts[:6]:
            legacy.evict(contact.node_id)
            compact.evict(contact.node_id)
            assert legacy.contacts() == compact.contacts()
            assert legacy.replacement_candidates() == compact.replacement_candidates()
        assert owner not in legacy and owner not in compact


ID_SPACE = 1 << ID_BITS
#: XOR distances from the owner that land in a *chosen* bucket: uniform ids
#: only ever reach the top few buckets, and the walk order is decided in the
#: sparse low ones.
bucket_distances = st.builds(
    lambda index, low: (1 << index) | (low & ((1 << index) - 1)),
    st.integers(0, ID_BITS - 1),
    st.integers(0, ID_SPACE - 1),
)


class TestClosestContactsProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        owner=st.integers(0, ID_SPACE - 1),
        k=st.integers(1, 4),
        pool=st.lists(bucket_distances, min_size=1, max_size=40, unique=True),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 39)), max_size=120),
        data=st.data(),
    )
    def test_equals_the_full_sort_and_the_legacy_table(self, owner, k, pool, ops, data):
        """Any table (single-contact buckets, buckets emptied by ``evict``,
        replacement-cache promotions), any target, any count: the bucket walk
        returns the ``(distance, id)`` sort's prefix, order included."""
        owner_id = NodeID(owner)
        contacts = [Contact(NodeID(owner ^ d), f"addr-{i}") for i, d in enumerate(pool)]
        legacy = RoutingTable(owner_id, k=k)
        compact = CompactRoutingTable(owner_id, k=k)
        for evict, pick in ops:
            contact = contacts[pick % len(contacts)]
            if evict:
                legacy.evict(contact.node_id)
                compact.evict(contact.node_id)
            else:
                assert legacy.record_contact(contact) == compact.record_contact(contact)
        stored = list(compact.contacts())
        assert stored == list(legacy.contacts())

        target = data.draw(
            st.one_of(
                st.just(owner_id),
                st.sampled_from([c.node_id for c in contacts]),
                st.builds(NodeID, st.integers(0, ID_SPACE - 1)),
                st.builds(lambda d: NodeID(owner ^ d), bucket_distances),
            ),
            label="target",
        )
        reference = sorted(stored, key=lambda c: (c.distance_to(target), c.node_id.value))
        for count in (0, 1, k, len(stored) + 5, None):
            expected = reference[: k if count is None else count]
            assert compact.closest_contacts(target, count) == expected
            assert legacy.closest_contacts(target, count) == expected


class TestRecordingAContactTheBucketHolds:
    """Re-recording a contact a full bucket already holds, at its fresh end
    or in its replacement cache: both buckets, and both tables' exports."""

    OWNER = NodeID(0)

    @staticmethod
    def contact(value: int, address: str | None = None) -> Contact:
        # Ids 4..7 all fall in bucket 2 of owner 0.
        return Contact(NodeID(value), address or f"addr-{value}")

    def record_everywhere(self, k, contacts):
        buckets = (KBucket(k=k), CompactKBucket(k=k))
        tables = (RoutingTable(self.OWNER, k=k), CompactRoutingTable(self.OWNER, k=k))
        for contact in contacts:
            results = {holder.record_contact(contact) for holder in buckets + tables}
            assert len(results) == 1, contact
        return buckets, tables

    def test_freshest_contact_under_a_new_address_adopts_the_new_record(self):
        members = [self.contact(v) for v in (4, 5, 6)]
        moved = self.contact(6, "addr-6-moved")
        buckets, tables = self.record_everywhere(3, members + [moved])
        for bucket in buckets:
            assert bucket.contacts() == [members[0], members[1], moved]
            assert bucket.replacement_candidates() == []
        legacy, compact = tables
        assert legacy.export_buckets() == compact.export_buckets()
        assert compact.export_buckets() == [(2, [members[0], members[1], moved], [])]

    def test_parked_replacement_moves_to_the_fresh_end(self):
        members = [self.contact(4), self.contact(5)]
        parked = [self.contact(6), self.contact(7)]
        again = self.contact(6, "addr-6-again")
        buckets, tables = self.record_everywhere(2, members + parked + [again])
        for bucket in buckets:
            assert bucket.contacts() == members
            assert bucket.replacement_candidates() == [parked[1], again]
            # The freshest replacement is the one promoted.
            bucket.evict(members[0].node_id)
            assert bucket.contacts() == [members[1], again]
            assert bucket.replacement_candidates() == [parked[1]]
        legacy, compact = tables
        assert legacy.export_buckets() == compact.export_buckets()
        assert compact.export_buckets() == [(2, members, [parked[1], again])]


class TestCompactSpecifics:
    def test_buckets_allocate_lazily(self):
        rng = random.Random(3)
        table = CompactRoutingTable(NodeID.random(rng), k=4)
        assert table.allocated_buckets() == 0
        for i in range(50):
            table.record_contact(random_contact(rng, i))
        # Random ids concentrate in the top buckets: far fewer than the 160
        # a legacy table eagerly allocates.
        assert 0 < table.allocated_buckets() < 20
        assert table.allocated_buckets() == len(table.bucket_utilisation())

    def test_restore_validates_indexes_and_membership(self):
        rng = random.Random(4)
        owner = NodeID.random(rng)
        table = CompactRoutingTable(owner, k=4)
        stray = random_contact(rng, 0)
        wrong = (stray.node_id.value ^ owner.value).bit_length() % ID_BITS
        wrong = (wrong + 1) % ID_BITS  # anything but its true bucket
        with pytest.raises(ValueError):
            table.restore_buckets([(wrong, [stray], [])])
        with pytest.raises(ValueError):
            table.restore_buckets([(ID_BITS, [stray], [])])
        with pytest.raises(IndexError):
            table.bucket(ID_BITS)

    def test_owner_is_special_cased(self):
        owner = NodeID(5)
        table = CompactRoutingTable(owner, k=2)
        assert table.record_contact(Contact(owner, "self")) is True
        table.evict(owner)  # must be a silent no-op
        assert len(table) == 0
        with pytest.raises(ValueError):
            table.bucket_index(owner)


class TestNodesBuildTheCompactTable:
    def test_every_node_builds_the_compact_table(self):
        from repro.dht.bootstrap import build_overlay

        overlay = build_overlay(3, seed=0)
        assert all(isinstance(n.routing_table, CompactRoutingTable) for n in overlay.nodes)


class TestInterner:
    def test_dense_indexes_in_first_seen_order(self):
        interner = NodeIDInterner()
        ids = [NodeID(5), NodeID(3), NodeID(9), NodeID(3)]
        assert [interner.intern(i) for i in ids] == [0, 1, 2, 1]
        assert len(interner) == 3
        assert interner.node_id(2) == NodeID(9)
        assert interner.value(0) == 5
        assert NodeID(3) in interner
        assert NodeID(4) not in interner
        assert interner.index_of(NodeID(4)) is None

    def test_argsort_orders_by_value(self):
        rng = random.Random(11)
        interner = NodeIDInterner()
        ids = [NodeID.random(rng) for _ in range(100)]
        for node_id in ids:
            interner.intern(node_id)
        order = interner.argsort()
        assert [interner.node_id(i) for i in order] == sorted(ids)
        interner.clear()
        assert len(interner) == 0
