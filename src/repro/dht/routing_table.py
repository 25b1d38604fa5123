"""Kademlia routing state: contacts, k-buckets and the routing table.

Every node keeps, for each distance range ``[2^i, 2^(i+1))``, a *k-bucket* of
up to ``k`` contacts ordered from least- to most-recently seen.  When a bucket
is full the standard Kademlia policy applies: the least-recently seen contact
is pinged and evicted only if it fails to answer, which protects the overlay
against flash crowds of new (and possibly short-lived) nodes.

The implementation is deliberately free of any networking concern: the node
layer decides when to ping and calls :meth:`KBucket.evict` /
:meth:`KBucket.record_contact` accordingly.  This keeps the data structure
easy to property-test (see ``tests/dht/test_routing_table.py``).

Two implementations of one contract live here:

* :class:`CompactRoutingTable` -- the table every node builds: buckets are
  allocated lazily on first contact, each bucket keeps its contacts in two
  parallel flat lists (raw 160-bit int keys next to the :class:`Contact`
  records), and k-closest selection visits the buckets in ascending distance
  to the target (their indexes, taken in the order the bits of
  ``owner ^ target`` dictate), gathers ``(distance, contact)`` pairs from
  only the buckets it needs and sorts those once, instead of fully sorting
  every known contact with a per-call lambda on each FIND_NODE/FIND_VALUE
  answer.
* :class:`RoutingTable` -- the original reference structure: ``ID_BITS``
  eagerly allocated ``OrderedDict``-backed :class:`KBucket` objects.  Easy to
  read, but at 10k simulated nodes the eager allocation alone is 1.6M dicts;
  it stays as the reference the compact table is tested against.

Both expose the exact same contract (``record_contact`` / ``evict`` /
``closest_contacts`` / ``export_buckets`` / ``restore_buckets`` / ...), are
pinned against each other by randomized lockstep tests, and restore each
other's snapshot records verbatim.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

from repro.dht.node_id import ID_BITS, NodeID

__all__ = [
    "Contact",
    "KBucket",
    "RoutingTable",
    "CompactKBucket",
    "CompactRoutingTable",
    "DEFAULT_K",
]

#: Kademlia's replication / bucket-size parameter (20 in the original paper).
DEFAULT_K = 20


@dataclass(frozen=True, slots=True)
class Contact:
    """Routing information about a remote node.

    ``address`` is the opaque transport address used by the simulated network
    (in a real deployment it would be an ``(ip, port)`` pair).
    """

    node_id: NodeID
    address: str

    def distance_to(self, target: NodeID) -> int:
        return self.node_id.distance_to(target)


class KBucket:
    """A single k-bucket: an LRU-ordered set of at most *k* contacts."""

    __slots__ = ("k", "_contacts", "_replacement_cache")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 1:
            raise ValueError("bucket capacity k must be >= 1")
        self.k = k
        # node_id -> Contact, ordered least-recently-seen first.
        self._contacts: OrderedDict[NodeID, Contact] = OrderedDict()
        # Candidates waiting for a slot (most recent kept), bounded by k.
        self._replacement_cache: OrderedDict[NodeID, Contact] = OrderedDict()

    # -- queries ---------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: NodeID) -> bool:
        return node_id in self._contacts

    def contacts(self) -> list[Contact]:
        """Contacts from least- to most-recently seen."""
        return list(self._contacts.values())

    @property
    def is_full(self) -> bool:
        return len(self._contacts) >= self.k

    def least_recently_seen(self) -> Contact | None:
        """The contact that should be pinged when the bucket is full."""
        if not self._contacts:
            return None
        return next(iter(self._contacts.values()))

    def replacement_candidates(self) -> list[Contact]:
        return list(self._replacement_cache.values())

    # -- updates ----------------------------------------------------------- #

    def record_contact(self, contact: Contact) -> bool:
        """Note that *contact* was just seen.

        Returns ``True`` if the contact is now in the bucket, ``False`` if the
        bucket was full and the contact was parked in the replacement cache
        (the caller should ping the least-recently-seen contact and call
        :meth:`evict` if it is dead).
        """
        if contact.node_id in self._contacts:
            self._contacts.move_to_end(contact.node_id)
            self._contacts[contact.node_id] = contact
            return True
        if not self.is_full:
            self._contacts[contact.node_id] = contact
            return True
        self._replacement_cache[contact.node_id] = contact
        self._replacement_cache.move_to_end(contact.node_id)
        while len(self._replacement_cache) > self.k:
            self._replacement_cache.popitem(last=False)
        return False

    def evict(self, node_id: NodeID) -> None:
        """Remove a dead contact and promote the freshest replacement, if any."""
        self._contacts.pop(node_id, None)
        self._replacement_cache.pop(node_id, None)
        if not self.is_full and self._replacement_cache:
            _rid, replacement = self._replacement_cache.popitem(last=True)
            self._contacts[replacement.node_id] = replacement

    # -- snapshot/restore --------------------------------------------------- #

    def export_state(self) -> tuple[list[Contact], list[Contact]]:
        """``(contacts, replacement cache)``, each least-recently-seen first."""
        return list(self._contacts.values()), list(self._replacement_cache.values())

    def restore_state(
        self, contacts: list[Contact], replacements: list[Contact]
    ) -> None:
        """Replace the bucket content with a previously exported state.

        Insertion order of both lists is preserved verbatim -- it *is* the
        LRU order, and a restored node must make the same eviction and
        promotion decisions the original would have made.
        """
        if len(contacts) > self.k or len(replacements) > self.k:
            raise ValueError(f"bucket state exceeds capacity k={self.k}")
        self._contacts.clear()
        self._replacement_cache.clear()
        for contact in contacts:
            self._contacts[contact.node_id] = contact
        for contact in replacements:
            self._replacement_cache[contact.node_id] = contact


class RoutingTable:
    """The full routing table of one node: ``ID_BITS`` k-buckets.

    Bucket ``i`` holds contacts whose XOR distance from the owner falls in
    ``[2^i, 2^(i+1))``.  The table never contains the owner itself.
    """

    __slots__ = ("owner_id", "k", "_buckets")

    def __init__(self, owner_id: NodeID, k: int = DEFAULT_K) -> None:
        self.owner_id = owner_id
        self.k = k
        self._buckets: list[KBucket] = [KBucket(k) for _ in range(ID_BITS)]

    # -- queries ---------------------------------------------------------- #

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    def __contains__(self, node_id: NodeID) -> bool:
        if node_id == self.owner_id:
            return False
        return node_id in self._bucket_for(node_id)

    def bucket_index(self, node_id: NodeID) -> int:
        return self.owner_id.bucket_index_for(node_id)

    def _bucket_for(self, node_id: NodeID) -> KBucket:
        return self._buckets[self.bucket_index(node_id)]

    def bucket(self, index: int) -> KBucket:
        return self._buckets[index]

    def contacts(self) -> Iterator[Contact]:
        """All known contacts, bucket by bucket."""
        for bucket in self._buckets:
            yield from bucket.contacts()

    def closest_contacts(self, target: NodeID, count: int | None = None) -> list[Contact]:
        """The *count* known contacts closest to *target* under XOR distance.

        This is the answer every node gives to a FIND_NODE / FIND_VALUE RPC.
        """
        count = self.k if count is None else count
        candidates = sorted(
            self.contacts(), key=lambda c: (c.distance_to(target), c.node_id.value)
        )
        return candidates[:count]

    # -- updates ----------------------------------------------------------- #

    def record_contact(self, contact: Contact) -> bool:
        """Record a freshly seen contact; silently ignores the owner itself.

        Returns ``True`` if the contact was inserted or refreshed, ``False``
        if its bucket is full (caller may trigger the ping-and-evict policy).
        """
        if contact.node_id == self.owner_id:
            return True
        return self._bucket_for(contact.node_id).record_contact(contact)

    def evict(self, node_id: NodeID) -> None:
        """Drop a contact that stopped responding."""
        if node_id == self.owner_id:
            return
        self._bucket_for(node_id).evict(node_id)

    def least_recently_seen(self, node_id: NodeID) -> Contact | None:
        """Least-recently-seen contact of the bucket *node_id* falls into."""
        return self._bucket_for(node_id).least_recently_seen()

    # -- maintenance -------------------------------------------------------- #

    def bucket_utilisation(self) -> dict[int, int]:
        """Non-empty bucket sizes, keyed by bucket index (for diagnostics)."""
        return {i: len(b) for i, b in enumerate(self._buckets) if len(b)}

    # -- snapshot/restore --------------------------------------------------- #

    def export_buckets(self) -> list[tuple[int, list[Contact], list[Contact]]]:
        """Every non-empty bucket as ``(index, contacts, replacements)``.

        Contact lists come out least-recently-seen first; feeding them back
        through :meth:`restore_buckets` reproduces the table exactly,
        including the replacement caches (which :meth:`record_contact` alone
        could not rebuild).
        """
        out = []
        for index, bucket in enumerate(self._buckets):
            contacts, replacements = bucket.export_state()
            if contacts or replacements:
                out.append((index, contacts, replacements))
        return out

    def restore_buckets(
        self, buckets: list[tuple[int, list[Contact], list[Contact]]]
    ) -> None:
        """Replace the whole table content with an exported bucket list."""
        for bucket in self._buckets:
            bucket.restore_state([], [])
        for index, contacts, replacements in buckets:
            if not (0 <= index < len(self._buckets)):
                raise ValueError(f"bucket index {index} out of range")
            for contact in contacts + replacements:
                if (
                    contact.node_id != self.owner_id
                    and self.bucket_index(contact.node_id) != index
                ):
                    raise ValueError(
                        f"contact {contact.address} does not belong in bucket {index}"
                    )
            self._buckets[index].restore_state(contacts, replacements)


class CompactKBucket:
    """Array-backed k-bucket: parallel flat lists in LRU order.

    ``_ids`` holds the raw 160-bit integer of each contact next to the
    :class:`Contact` record in ``_contacts`` (least-recently-seen first), so
    membership tests and LRU moves are list operations over machine ints on a
    list of at most ``k`` (20) entries -- no per-bucket dict, no OrderedDict
    node allocations.  Semantics are pinned bit-for-bit against
    :class:`KBucket` by the property tests in ``tests/dht``.
    """

    __slots__ = ("k", "_ids", "_contacts", "_repl_ids", "_repl_contacts")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 1:
            raise ValueError("bucket capacity k must be >= 1")
        self.k = k
        self._ids: list[int] = []
        self._contacts: list[Contact] = []
        self._repl_ids: list[int] = []
        self._repl_contacts: list[Contact] = []

    # -- queries ---------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: NodeID) -> bool:
        return node_id.value in self._ids

    def contacts(self) -> list[Contact]:
        """Contacts from least- to most-recently seen."""
        return list(self._contacts)

    @property
    def is_full(self) -> bool:
        return len(self._ids) >= self.k

    def least_recently_seen(self) -> Contact | None:
        """The contact that should be pinged when the bucket is full."""
        return self._contacts[0] if self._contacts else None

    def replacement_candidates(self) -> list[Contact]:
        return list(self._repl_contacts)

    # -- updates ----------------------------------------------------------- #

    def record_contact(self, contact: Contact) -> bool:
        """Note that *contact* was just seen (same contract as
        :meth:`KBucket.record_contact`)."""
        value = contact.node_id.value
        ids = self._ids
        contacts = self._contacts
        if ids and ids[-1] == value:
            # Already the freshest: only adopt the new record (its address
            # may have changed).
            contacts[-1] = contact
            return True
        if value in ids:
            # Refresh: move to the most-recently-seen end, adopting the new
            # contact record.
            position = ids.index(value)
            del ids[position]
            del contacts[position]
            ids.append(value)
            contacts.append(contact)
            return True
        if len(ids) < self.k:
            ids.append(value)
            contacts.append(contact)
            return True
        repl_ids = self._repl_ids
        if value in repl_ids:
            position = repl_ids.index(value)
            del repl_ids[position]
            del self._repl_contacts[position]
        repl_ids.append(value)
        self._repl_contacts.append(contact)
        while len(repl_ids) > self.k:
            del repl_ids[0]
            del self._repl_contacts[0]
        return False

    def evict(self, node_id: NodeID) -> None:
        """Remove a dead contact and promote the freshest replacement, if any."""
        value = node_id.value
        if value in self._ids:
            position = self._ids.index(value)
            del self._ids[position]
            del self._contacts[position]
        if value in self._repl_ids:
            position = self._repl_ids.index(value)
            del self._repl_ids[position]
            del self._repl_contacts[position]
        if len(self._ids) < self.k and self._repl_ids:
            self._ids.append(self._repl_ids.pop())
            self._contacts.append(self._repl_contacts.pop())

    # -- snapshot/restore --------------------------------------------------- #

    def export_state(self) -> tuple[list[Contact], list[Contact]]:
        """``(contacts, replacement cache)``, each least-recently-seen first."""
        return list(self._contacts), list(self._repl_contacts)

    def restore_state(
        self, contacts: list[Contact], replacements: list[Contact]
    ) -> None:
        """Replace the bucket content, preserving LRU order verbatim."""
        if len(contacts) > self.k or len(replacements) > self.k:
            raise ValueError(f"bucket state exceeds capacity k={self.k}")
        self._ids = [c.node_id.value for c in contacts]
        self._contacts = list(contacts)
        self._repl_ids = [c.node_id.value for c in replacements]
        self._repl_contacts = list(replacements)


class CompactRoutingTable:
    """Array-backed routing table: lazily allocated :class:`CompactKBucket`\\ s.

    A node's table only materialises the buckets it actually uses (a
    converged Kademlia table populates ~log2(n) of its 160 buckets), and
    :meth:`closest_contacts` -- the FIND_NODE/FIND_VALUE hot path -- visits
    buckets nearest-first, gathers their contacts until ``count`` are in
    hand and sorts only those, once: the same list, in the same order, as
    the reference full ``(distance, id)`` sort.
    """

    __slots__ = ("owner_id", "k", "_owner_value", "_buckets")

    def __init__(self, owner_id: NodeID, k: int = DEFAULT_K) -> None:
        self.owner_id = owner_id
        self.k = k
        self._owner_value = owner_id.value
        self._buckets: dict[int, CompactKBucket] = {}

    # -- queries ---------------------------------------------------------- #

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __contains__(self, node_id: NodeID) -> bool:
        if node_id.value == self._owner_value:
            return False
        bucket = self._buckets.get(self.bucket_index(node_id))
        return bucket is not None and node_id in bucket

    def bucket_index(self, node_id: NodeID) -> int:
        distance = self._owner_value ^ node_id.value
        if distance == 0:
            raise ValueError("a node has no bucket for itself")
        return distance.bit_length() - 1

    def bucket(self, index: int) -> CompactKBucket:
        """The bucket at *index*, materialising it on first access."""
        if not (0 <= index < ID_BITS):
            raise IndexError(f"bucket index {index} out of range")
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = CompactKBucket(self.k)
        return bucket

    def allocated_buckets(self) -> int:
        """Buckets actually materialised (memory diagnostics)."""
        return len(self._buckets)

    def contacts(self) -> Iterator[Contact]:
        """All known contacts, bucket by bucket in ascending index order."""
        for index in sorted(self._buckets):
            yield from self._buckets[index]._contacts

    def closest_contacts(self, target: NodeID, count: int | None = None) -> list[Contact]:
        """The *count* known contacts closest to *target* under XOR distance."""
        count = self.k if count is None else count
        if count <= 0:
            return []
        target_value = target.value
        delta = self._owner_value ^ target_value
        # XOR with the target maps bucket i onto the aligned distance range
        # that starts at delta with bit i flipped and the lower bits cleared.
        # The ranges are disjoint and ascend over the set bits of delta from
        # the top down, then over its clear bits from the bottom up: visit
        # the allocated buckets in that order, gather (distance, contact)
        # pairs until count are in hand, and sort them once (distances are
        # unique, so the sort never reaches the contact).
        buckets = self._buckets
        indexes = sorted(buckets)
        pairs: list[tuple[int, Contact]] = []
        for index in reversed(indexes):
            if delta >> index & 1:
                bucket = buckets[index]
                pairs += zip(map(target_value.__xor__, bucket._ids), bucket._contacts)
                if len(pairs) >= count:
                    break
        else:
            for index in indexes:
                if not delta >> index & 1:
                    bucket = buckets[index]
                    pairs += zip(map(target_value.__xor__, bucket._ids), bucket._contacts)
                    if len(pairs) >= count:
                        break
        pairs.sort()
        return [contact for _, contact in pairs[:count]]

    # -- updates ----------------------------------------------------------- #

    def record_contact(self, contact: Contact) -> bool:
        """Record a freshly seen contact; silently ignores the owner itself."""
        distance = self._owner_value ^ contact.node_id.value
        if not distance:
            return True
        index = distance.bit_length() - 1
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = CompactKBucket(self.k)
        return bucket.record_contact(contact)

    def evict(self, node_id: NodeID) -> None:
        """Drop a contact that stopped responding."""
        if node_id.value == self._owner_value:
            return
        bucket = self._buckets.get(self.bucket_index(node_id))
        if bucket is not None:
            bucket.evict(node_id)

    def least_recently_seen(self, node_id: NodeID) -> Contact | None:
        """Least-recently-seen contact of the bucket *node_id* falls into."""
        bucket = self._buckets.get(self.bucket_index(node_id))
        return bucket.least_recently_seen() if bucket is not None else None

    # -- maintenance -------------------------------------------------------- #

    def bucket_utilisation(self) -> dict[int, int]:
        """Non-empty bucket sizes, keyed by bucket index in ascending order.

        Ascending order matters: bucket refresh iterates this mapping while
        drawing from a seeded RNG, so the iteration order is part of the
        deterministic behaviour pinned against :class:`RoutingTable`.
        """
        return {
            index: len(self._buckets[index])
            for index in sorted(self._buckets)
            if len(self._buckets[index])
        }

    # -- snapshot/restore --------------------------------------------------- #

    def export_buckets(self) -> list[tuple[int, list[Contact], list[Contact]]]:
        """Every non-empty bucket as ``(index, contacts, replacements)``,
        ascending by index, contact lists least-recently-seen first."""
        out = []
        for index in sorted(self._buckets):
            contacts, replacements = self._buckets[index].export_state()
            if contacts or replacements:
                out.append((index, contacts, replacements))
        return out

    def restore_buckets(
        self, buckets: list[tuple[int, list[Contact], list[Contact]]]
    ) -> None:
        """Replace the whole table content with an exported bucket list.

        Accepts records exported by either implementation (a snapshot does
        not distinguish them), preserving LRU and replacement-cache order
        verbatim.
        """
        self._buckets.clear()
        for index, contacts, replacements in buckets:
            if not (0 <= index < ID_BITS):
                raise ValueError(f"bucket index {index} out of range")
            for contact in contacts + replacements:
                if (
                    contact.node_id.value != self._owner_value
                    and self.bucket_index(contact.node_id) != index
                ):
                    raise ValueError(
                        f"contact {contact.address} does not belong in bucket {index}"
                    )
            self.bucket(index).restore_state(contacts, replacements)

