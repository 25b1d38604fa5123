"""RPC vocabulary of the Kademlia/Likir substrate.

Kademlia defines four RPCs (PING, STORE, FIND_NODE, FIND_VALUE).  DHARMA's
block model additionally needs an *append* primitive so that a block can be
updated with "one-bit tokens" (unit increments of individual counters) in a
single overlay operation instead of a read-modify-write; we model it as a
fifth RPC, APPEND, which every storage node applies commutatively.

Requests and responses are small frozen dataclasses; the simulated network
just passes them by reference, but they are designed to be serialisable (all
fields are plain data) so a real wire format could be layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dht.likir import SignedValue
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact

__all__ = [
    "RPCRequest",
    "RPCResponse",
    "PingRequest",
    "PingResponse",
    "StoreRequest",
    "StoreResponse",
    "AppendRequest",
    "AppendResponse",
    "FindNodeRequest",
    "FindNodeResponse",
    "FindValueRequest",
    "FindValueResponse",
    "ContactInfo",
    "wire_size",
]

#: A contact on the wire is the routing table's own frozen record: replies
#: carry the responder's contacts as they are, with no conversion either way.
ContactInfo = Contact


@dataclass(frozen=True, slots=True)
class RPCRequest:
    """Base class of every request: carries the sender's identity so the
    receiver can refresh its routing table (every Kademlia message doubles as
    a liveness proof)."""

    sender_id: NodeID
    sender_address: str


@dataclass(frozen=True, slots=True)
class RPCResponse:
    """Base class of every response."""

    responder_id: NodeID


@dataclass(frozen=True, slots=True)
class PingRequest(RPCRequest):
    """Liveness probe."""


@dataclass(frozen=True, slots=True)
class PingResponse(RPCResponse):
    alive: bool = True


@dataclass(frozen=True, slots=True)
class StoreRequest(RPCRequest):
    """Store (replace) a value under *key* at the receiver."""

    key: NodeID = field(default=None)  # type: ignore[assignment]
    value: Any = None


@dataclass(frozen=True, slots=True)
class StoreResponse(RPCResponse):
    stored: bool = True


@dataclass(frozen=True, slots=True)
class AppendRequest(RPCRequest):
    """Apply counter increments to the block stored under *key*.

    ``increments`` maps entry names to positive integer deltas; ``block_type``
    and ``owner`` let the receiver create the block if it does not exist yet.

    ``increments_if_new`` optionally overrides the delta used when the entry
    does not exist yet in the block: this is how Approximation B is enforced
    *at the storage node* -- the publisher ships both the exact increment
    ``u(τ, r)`` and the new-arc value 1, and the node holding the ``t̂`` block
    resolves the existence check locally, so no extra lookup and no
    read-modify-write race is introduced.
    """

    key: NodeID = field(default=None)  # type: ignore[assignment]
    owner: str = ""
    block_type: str = ""
    increments: dict[str, int] = field(default_factory=dict)
    increments_if_new: dict[str, int] | None = None


@dataclass(frozen=True, slots=True)
class AppendResponse(RPCResponse):
    applied: bool = True
    #: Number of distinct entries in the block after the append.
    block_size: int = 0


@dataclass(frozen=True, slots=True)
class FindNodeRequest(RPCRequest):
    """Ask for the k known contacts closest to *target*."""

    target: NodeID = field(default=None)  # type: ignore[assignment]
    count: int = 20


@dataclass(frozen=True, slots=True)
class FindNodeResponse(RPCResponse):
    contacts: tuple[ContactInfo, ...] = ()


@dataclass(frozen=True, slots=True)
class FindValueRequest(RPCRequest):
    """Like FIND_NODE, but returns the value if the receiver stores *key*.

    ``top_n`` enables the index-side filtering of Section V-A: when set, a
    counter block is truncated to its *top_n* heaviest entries before being
    returned (mimicking the UDP payload bound of the overlay message).
    """

    key: NodeID = field(default=None)  # type: ignore[assignment]
    count: int = 20
    top_n: int | None = None


@dataclass(frozen=True, slots=True)
class FindValueResponse(RPCResponse):
    found: bool = False
    value: Any = None
    contacts: tuple[ContactInfo, ...] = ()


#: Frame header (magic, version, type byte, one-byte request id) plus the
#: 20-byte sender/responder id every message opens with.
_HEAD = 24


def _value_size(value: Any) -> int:
    """A stored value in the tagged union of ``core.codec.encode_value``: a
    tag byte, one-byte lengths and counts, one-byte integers.  What the codec
    has no tag for counts as its dataclass fields, or as the tag alone."""
    if isinstance(value, (str, bytes)):
        return 2 + len(value)
    if isinstance(value, int):
        return 2
    if isinstance(value, float):
        return 9
    if isinstance(value, dict):
        # Counter blocks are name -> int maps: size their items inline.
        return 2 + sum(
            [
                1 + len(name) + (2 if type(item) is int else _value_size(item))
                for name, item in value.items()
            ]
        )
    if isinstance(value, (list, tuple)):
        return 2 + sum(map(_value_size, value))
    if isinstance(value, SignedValue):
        # Publisher, 40-digit key and credential, each behind a length byte.
        return 43 + len(value.publisher) + len(value.credential) + _value_size(value.value)
    fields = getattr(value, "__dataclass_fields__", ())
    return 1 + sum([_value_size(getattr(value, name)) for name in fields])


def _request_size(message: RPCRequest) -> int:
    return _HEAD + 1 + len(message.sender_address)


def _contacts_size(contacts: tuple[Contact, ...]) -> int:
    # A count byte, then id, length byte and address per contact.
    return 1 + 21 * len(contacts) + sum([len(contact.address) for contact in contacts])


def _entries_size(entries: dict[str, int] | None) -> int:
    # A count (or absence) byte, then length byte, name and counter per entry.
    return 1 + 2 * len(entries) + sum(map(len, entries)) if entries else 1


#: Frame size per message type: keys and targets are 20-byte ids, a stored
#: value travels behind a one-byte envelope flag.
_SIZERS = {
    PingRequest: _request_size,
    PingResponse: lambda m: _HEAD + 1,
    StoreRequest: lambda m: _request_size(m) + 21 + _value_size(m.value),
    StoreResponse: lambda m: _HEAD + 1,
    AppendRequest: lambda m: (
        _request_size(m) + 22 + len(m.owner) + len(m.block_type)
        + _entries_size(m.increments) + _entries_size(m.increments_if_new)
    ),
    AppendResponse: lambda m: _HEAD + 2,
    FindNodeRequest: lambda m: _request_size(m) + 21,
    FindNodeResponse: lambda m: _HEAD + _contacts_size(m.contacts),
    FindValueRequest: lambda m: _request_size(m) + 23,
    FindValueResponse: lambda m: _HEAD + 2 + _value_size(m.value) + _contacts_size(m.contacts),
}


def wire_size(message: Any) -> int:
    """Estimated bytes of *message* as a :mod:`repro.net.wire` frame.

    Structural (fixed bytes per id, ``len`` of each address and name, a term
    per contact and per entry; nothing is encoded or stringified), so the
    simulator can afford it on both legs of every RPC.  Anything that is not
    an RPC message is sized as a stored value.
    """
    sizer = _SIZERS.get(type(message))
    return sizer(message) if sizer is not None else _value_size(message)
