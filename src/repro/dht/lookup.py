"""The iterative Kademlia lookup procedure.

A lookup for a target identifier proceeds in rounds: the initiator keeps a
shortlist of the closest contacts discovered so far, queries the ``alpha``
closest not-yet-queried entries, merges the contacts they return, and stops
when a round fails to discover anyone closer than the best already known (the
procedure then queries any remaining unqueried contact among the ``k``
closest).  FIND_VALUE lookups additionally short-circuit as soon as one of the
queried nodes returns the value.

The procedure is written against the tiny :class:`LookupTransport` protocol so
it can be unit-tested with a scripted transport, independently of the node and
network machinery.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact

__all__ = ["LookupTransport", "LookupOutcome", "iterative_lookup", "MAX_ROUNDS"]

#: Hard bound on query rounds per lookup, protecting against a transport
#: that keeps handing out ever-closer contacts.
MAX_ROUNDS = 64


class LookupTransport(Protocol):
    """What the lookup procedure needs from the node layer."""

    def query(
        self, contact: Contact, target: NodeID, find_value: bool, top_n: int | None
    ) -> tuple[Sequence[Contact], Any | None] | None:
        """Send one FIND_NODE / FIND_VALUE RPC to *contact*.

        Returns ``(closer_contacts, value_or_None)`` on success or ``None`` if
        the contact did not answer (timeout, crash, message loss).
        """
        ...

    def is_suspect(self, node_id: NodeID) -> bool:
        """Whether the initiator itself recently watched *node_id* fail.

        Such a contact is dropped from the shortlist, unqueried, when its
        turn comes, however many peers still vouch for it.
        """
        ...


@dataclass(slots=True)
class LookupOutcome:
    """Result of an iterative lookup."""

    target: NodeID
    #: The k closest live contacts found, sorted by distance to the target.
    closest: list[Contact] = field(default_factory=list)
    #: The value, when a FIND_VALUE lookup hit a node storing the key.
    value: Any | None = None
    found_value: bool = False
    #: Number of query rounds performed.
    rounds: int = 0
    #: Number of RPCs issued (including failed ones).
    messages: int = 0
    #: Number of RPCs that timed out / failed.
    failures: int = 0
    #: For store/append operations built on this lookup: how many replicas
    #: actually accepted the write (0 for plain lookups).
    accepted_replicas: int = 0

    @property
    def succeeded(self) -> bool:
        """A lookup succeeds if it found the value (FIND_VALUE) or at least one
        live contact (FIND_NODE)."""
        return self.found_value or bool(self.closest)


def iterative_lookup(
    transport: LookupTransport,
    target: NodeID,
    seeds: list[Contact],
    k: int,
    alpha: int = 3,
    find_value: bool = False,
    top_n: int | None = None,
) -> LookupOutcome:
    """Run the iterative node/value lookup starting from *seeds*.

    Parameters
    ----------
    transport:
        RPC issuer (usually the node itself).
    target:
        The identifier being located.
    seeds:
        Initial shortlist, normally the ``alpha`` closest contacts from the
        initiator's routing table.
    k:
        System-wide replication parameter; the lookup terminates once the
        ``k`` closest known contacts have all been queried.
    alpha:
        Lookup concurrency (queries issued per round).
    find_value:
        When True the lookup performs FIND_VALUE semantics and stops at the
        first value hit.
    top_n:
        Optional index-side filtering hint forwarded to FIND_VALUE.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")

    outcome = LookupOutcome(target=target)
    # Keyed by the bare id value: these sets are consulted per contact per
    # round, and ``NodeID.__hash__`` / ``__eq__`` run in Python.
    shortlist: dict[int, Contact] = {c.node_id.value: c for c in seeds}
    queried: set[int] = set()
    failed: set[int] = set()

    target_value = target.value
    # The shortlist as (distance, id) pairs in ascending order.  ``ask``
    # appends the contacts a reply names for the first time, and the list is
    # re-sorted only when ``ranked`` next reads it after such an append (a
    # sorted run plus a short tail).  Distances are unique per id, so this
    # is the order of a full sort; ``ranked`` walks it and stops at k.
    order = [(value ^ target_value, value) for value in shortlist]
    unsorted = True

    def ranked() -> list[Contact]:
        nonlocal unsorted
        if unsorted:
            order.sort()
            unsorted = False
        live: list[Contact] = []
        for _, value in order:
            if value not in failed:
                live.append(shortlist[value])
                if len(live) == k:
                    break
        return live

    # The suspect check sits where a candidate is about to be queried -- once
    # per RPC, not on every contact of every reply.  A suspect leaves the
    # shortlist like a contact that failed, minus the RPC.
    is_suspect = transport.is_suspect

    def ask(contact: Contact) -> bool:
        """Query *contact* unless it is suspect; True when it answered (with
        the value, which then sits in *outcome*, or with closer contacts)."""
        nonlocal unsorted
        value = contact.node_id.value
        if is_suspect(contact.node_id):
            failed.add(value)
            return False
        queried.add(value)
        outcome.messages += 1
        reply = transport.query(contact, target, find_value, top_n)
        if reply is None:
            outcome.failures += 1
            failed.add(value)
            return False
        closer_contacts, found = reply
        if find_value and found is not None:
            outcome.value = found
            outcome.found_value = True
        else:
            for new_contact in closer_contacts:
                new_value = new_contact.node_id.value
                if new_value not in shortlist:  # the first record of an id wins
                    shortlist[new_value] = new_contact
                    order.append((new_value ^ target_value, new_value))
                    unsorted = True
        return True

    best_distance: int | None = None
    while outcome.rounds < MAX_ROUNDS and not outcome.found_value:
        candidates = [c for c in ranked() if c.node_id.value not in queried]
        if not candidates:
            break
        outcome.rounds += 1
        improved = False
        for contact in candidates[:alpha]:
            if not ask(contact):
                continue
            if outcome.found_value:
                break
            distance = contact.node_id.value ^ target_value
            if best_distance is None or distance < best_distance:
                best_distance = distance
                improved = True
        if not improved and not outcome.found_value:
            # No progress this round: finish by querying any unqueried contact
            # among the k closest, then stop.
            for contact in [c for c in ranked() if c.node_id.value not in queried]:
                if ask(contact) and outcome.found_value:
                    break
            break

    outcome.closest = ranked()
    return outcome
