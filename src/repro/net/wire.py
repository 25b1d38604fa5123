"""Binary wire format of the DHT RPCs.

Every RPC of :mod:`repro.dht.messages` has a frame encoding built from the
varint vocabulary of :mod:`repro.core.codec`:

========  ==========================================================
offset    content
========  ==========================================================
0         magic ``0xDA``
1         format version (``0x01``)
2         frame-type byte (``0x20``-``0x29``, ``0x2F`` for faults)
3...      request id (uvarint) -- correlates a response datagram with
          its pending request on the client
...       body (see the encoder of each type)
========  ==========================================================

Requests open their body with the sender's 20-byte node id and transport
address (every Kademlia message doubles as a liveness proof, so the receiver
needs the contact); responses open with the responder's 20-byte node id.
Arbitrary stored values use the tagged union of
:func:`repro.core.codec.encode_value`, wrapped in one flag byte so a Likir
:class:`~repro.dht.likir.SignedValue` ships its publisher/credential
envelope alongside the plain value.

A handler exception on the server is shipped back as a **fault frame**
(``0x2F``: exception class name + message) and re-raised client-side with
the matching local type, so ``dharma serve`` nodes behave like the simulator
where handler exceptions propagate to the caller.

Frame types
-----------

=========  ======================  =========  ======================
type byte  message                 type byte  message
=========  ======================  =========  ======================
``0x20``   ``PingRequest``         ``0x21``   ``PingResponse``
``0x22``   ``StoreRequest``        ``0x23``   ``StoreResponse``
``0x24``   ``AppendRequest``       ``0x25``   ``AppendResponse``
``0x26``   ``FindNodeRequest``     ``0x27``   ``FindNodeResponse``
``0x28``   ``FindValueRequest``    ``0x29``   ``FindValueResponse``
``0x2F``   ``RemoteFault``
=========  ======================  =========  ======================

The golden-byte tests in ``tests/net/test_rpc_wire_codec.py`` pin the exact
encoding of every frame type: any byte-level change is a wire protocol break
and must bump the version byte.

Interned records
----------------

A node hears the same few peers over and over: the sender head of every
request and every contact of a FIND_NODE / FIND_VALUE reply is the record
``20-byte id | uvarint length | utf-8 address``, and every response opens
with one of the same few 20-byte ids.  The decoder therefore resolves both
through two module-level tables keyed by the record's **exact bytes**
(:data:`_CONTACTS`: whole record -> frozen ``Contact``; :data:`_IDS`: 20 bytes
-> ``NodeID``).  Only the field-by-field parser fills them, with bytes it has
just accepted, so a hit returns what the parser would have built and a miss
-- like a length of 128 or more, or a record that would run past the
datagram -- *is* the parser, raising its ``CodecError``s.  Both record types
are frozen and compare by value, so handing the same object to every frame
that carries the same bytes is unobservable.  Each table holds at most
:data:`_INTERN_MAX` records and is emptied when full: a flood of spoofed
contacts costs re-parsing, never memory.  The tables are shared by every
thread that decodes, lock-free, on single dict operations: a racing clear
loses a record (re-parsed next time) and a racing insert may overshoot the
bound by one per thread, nothing more.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.core.codec import (
    CodecError,
    decode_uvarint,
    decode_value,
    encode_uvarint,
    encode_value,
)
from repro.core.codec import _read_string, _write_string
from repro.dht.likir import LikirAuthError, SignedValue
from repro.net.base import DatagramTooLarge
from repro.dht.messages import (
    AppendRequest,
    AppendResponse,
    ContactInfo,
    FindNodeRequest,
    FindNodeResponse,
    FindValueRequest,
    FindValueResponse,
    PingRequest,
    PingResponse,
    StoreRequest,
    StoreResponse,
)
from repro.dht.node_id import ID_BYTES, NodeID

__all__ = [
    "RemoteFault",
    "encode_frame",
    "decode_frame",
    "fault_frame",
    "raise_fault",
]

_MAGIC = 0xDA
_VERSION = 1
_HEADER = struct.Struct("<BBB")

_PING_REQ = 0x20
_PING_RESP = 0x21
_STORE_REQ = 0x22
_STORE_RESP = 0x23
_APPEND_REQ = 0x24
_APPEND_RESP = 0x25
_FIND_NODE_REQ = 0x26
_FIND_NODE_RESP = 0x27
_FIND_VALUE_REQ = 0x28
_FIND_VALUE_RESP = 0x29
_FAULT = 0x2F

#: Value-envelope flags: plain tagged-union value vs. Likir-signed wrapper.
_PLAIN_VALUE = 0x00
_SIGNED_VALUE = 0x01


@dataclass(frozen=True, slots=True)
class RemoteFault:
    """A server-side handler exception carried back over the wire."""

    kind: str
    message: str


#: Exception types a fault frame may rehydrate into.  Anything else (or an
#: unknown kind from a newer peer) degrades to ``RuntimeError``.
#: ``DatagramTooLarge`` is listed so an oversize *response* refused by the
#: server re-raises as the transport error the client would have produced
#: for an oversize request.
_FAULT_TYPES: dict[str, type[Exception]] = {
    "LikirAuthError": LikirAuthError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "DatagramTooLarge": DatagramTooLarge,
}


def raise_fault(fault: RemoteFault) -> None:
    """Re-raise a :class:`RemoteFault` as its local exception type."""
    exc_type = _FAULT_TYPES.get(fault.kind, RuntimeError)
    raise exc_type(fault.message)


def fault_frame(request_id: int, exc: Exception) -> bytes:
    """Encode a handler exception as a fault frame."""
    return encode_frame(request_id, RemoteFault(kind=type(exc).__name__, message=str(exc)))


# --------------------------------------------------------------------- #
# field helpers
# --------------------------------------------------------------------- #


#: Bound of each intern table (see the module docstring): a constant-size
#: cache, emptied when full.
_INTERN_MAX = 4_096
#: ``id | length byte | address`` exactly as received -> the contact it parses to.
_CONTACTS: dict[bytes, ContactInfo] = {}
#: 20 bytes exactly as received -> the id they parse to.
_IDS: dict[bytes, NodeID] = {}


def _intern(table: dict, raw: bytes, record: Any) -> None:
    if len(table) >= _INTERN_MAX:
        table.clear()
    table[raw] = record


def _write_id(out: bytearray, node_id: NodeID) -> None:
    out += node_id.value.to_bytes(ID_BYTES, "big")


def _read_id(data: bytes, offset: int) -> tuple[NodeID, int]:
    end = offset + ID_BYTES
    raw = data[offset:end]
    node_id = _IDS.get(raw)  # a short slice is never a key
    if node_id is None:
        if end > len(data):
            raise CodecError("truncated node id")
        node_id = NodeID.from_bytes(raw)
        _intern(_IDS, raw, node_id)
    return node_id, end


def _write_contact(out: bytearray, node_id: NodeID, address: str) -> None:
    """One ``id | uvarint length | utf-8 address`` record, written in place."""
    raw = address.encode("utf-8")
    out += node_id.value.to_bytes(ID_BYTES, "big")
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        out += encode_uvarint(len(raw))
    out += raw


def _read_contact(data: bytes, offset: int) -> tuple[ContactInfo, int]:
    """Inverse of :func:`_write_contact`, through :data:`_CONTACTS`.

    The record is looked up only when it has a one-byte length and lies
    wholly inside *data*; everything else is the parser's to accept or refuse.
    """
    record = None
    length_at = offset + ID_BYTES
    if length_at < len(data):
        length = data[length_at]
        end = length_at + 1 + length
        if length < 0x80 and end <= len(data):
            record = data[offset:end]
            contact = _CONTACTS.get(record)
            if contact is not None:
                return contact, end
    node_id, end = _read_id(data, offset)
    address, end = _read_string(data, end)
    contact = ContactInfo(node_id=node_id, address=address)
    if record is not None:
        _intern(_CONTACTS, record, contact)
    return contact, end


def _write_contacts(out: bytearray, contacts: tuple[ContactInfo, ...]) -> None:
    out += encode_uvarint(len(contacts))
    for contact in contacts:
        _write_contact(out, contact.node_id, contact.address)


def _read_contacts(data: bytes, offset: int) -> tuple[tuple[ContactInfo, ...], int]:
    count, offset = decode_uvarint(data, offset)
    contacts = []
    for _ in range(count):
        contact, offset = _read_contact(data, offset)
        contacts.append(contact)
    return tuple(contacts), offset


def _write_wrapped_value(out: bytearray, value: Any) -> None:
    """A stored value with its Likir envelope flag.

    The signed wrapper keeps the inner value's dict insertion order on the
    wire (``encode_value`` guarantees it, and the golden bytes pin it); the
    credential covers a sorted rendering, so verification does not depend on
    that order.
    """
    if isinstance(value, SignedValue):
        out.append(_SIGNED_VALUE)
        _write_string(out, value.publisher)
        _write_string(out, value.key_hex)
        out += encode_uvarint(len(value.credential))
        out += value.credential
        out += encode_value(value.value)
    else:
        out.append(_PLAIN_VALUE)
        out += encode_value(value)


def _read_wrapped_value(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated value envelope flag")
    flag = data[offset]
    offset += 1
    if flag == _PLAIN_VALUE:
        return decode_value(data, offset)
    if flag == _SIGNED_VALUE:
        publisher, offset = _read_string(data, offset)
        key_hex, offset = _read_string(data, offset)
        length, offset = decode_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated credential")
        credential = data[offset:end]
        value, offset = decode_value(data, end)
        signed = SignedValue(
            publisher=publisher, key_hex=key_hex, value=value, credential=credential
        )
        return signed, offset
    raise CodecError(f"bad value envelope flag {flag:#x}")


def _write_optional_uvarint(out: bytearray, value: int | None) -> None:
    if value is None:
        out.append(0x00)
    else:
        out.append(0x01)
        out += encode_uvarint(value)


def _read_optional_uvarint(data: bytes, offset: int) -> tuple[int | None, int]:
    if offset >= len(data):
        raise CodecError("truncated optional flag")
    flag = data[offset]
    offset += 1
    if flag == 0x00:
        return None, offset
    if flag == 0x01:
        return decode_uvarint(data, offset)
    raise CodecError(f"bad optional flag {flag:#x}")


def _write_entries_ordered(out: bytearray, entries: dict[str, int]) -> None:
    """Counter entries in **insertion order** (matches dataclass equality and
    keeps encode->decode->encode stable for golden tests)."""
    out += encode_uvarint(len(entries))
    for name, value in entries.items():
        _write_string(out, name)
        out += encode_uvarint(value)


def _read_entries_ordered(data: bytes, offset: int) -> tuple[dict[str, int], int]:
    count, offset = decode_uvarint(data, offset)
    entries: dict[str, int] = {}
    for _ in range(count):
        name, offset = _read_string(data, offset)
        value, offset = decode_uvarint(data, offset)
        entries[name] = value
    return entries, offset


# --------------------------------------------------------------------- #
# frame encode
# --------------------------------------------------------------------- #


def encode_frame(request_id: int, message: Any) -> bytes:
    """Serialize one RPC message (or :class:`RemoteFault`) to a datagram."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise CodecError(f"cannot encode frame for {type(message).__name__}")
    type_byte, write_body = encoder
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, type_byte))
    out += encode_uvarint(request_id)
    write_body(out, message)
    return bytes(out)


def _request_head(out: bytearray, message: Any) -> None:
    _write_contact(out, message.sender_id, message.sender_address)


def _response_head(out: bytearray, message: Any) -> None:
    _write_id(out, message.responder_id)


def _enc_ping_req(out: bytearray, m: PingRequest) -> None:
    _request_head(out, m)


def _enc_ping_resp(out: bytearray, m: PingResponse) -> None:
    _response_head(out, m)
    out.append(0x01 if m.alive else 0x00)


def _enc_store_req(out: bytearray, m: StoreRequest) -> None:
    _request_head(out, m)
    _write_id(out, m.key)
    _write_wrapped_value(out, m.value)


def _enc_store_resp(out: bytearray, m: StoreResponse) -> None:
    _response_head(out, m)
    out.append(0x01 if m.stored else 0x00)


def _enc_append_req(out: bytearray, m: AppendRequest) -> None:
    _request_head(out, m)
    _write_id(out, m.key)
    _write_string(out, m.owner)
    _write_string(out, m.block_type)
    _write_entries_ordered(out, m.increments)
    if m.increments_if_new is None:
        out.append(0x00)
    else:
        out.append(0x01)
        _write_entries_ordered(out, m.increments_if_new)


def _enc_append_resp(out: bytearray, m: AppendResponse) -> None:
    _response_head(out, m)
    out.append(0x01 if m.applied else 0x00)
    out += encode_uvarint(m.block_size)


def _enc_find_node_req(out: bytearray, m: FindNodeRequest) -> None:
    _request_head(out, m)
    _write_id(out, m.target)
    out += encode_uvarint(m.count)


def _enc_find_node_resp(out: bytearray, m: FindNodeResponse) -> None:
    _response_head(out, m)
    _write_contacts(out, m.contacts)


def _enc_find_value_req(out: bytearray, m: FindValueRequest) -> None:
    _request_head(out, m)
    _write_id(out, m.key)
    out += encode_uvarint(m.count)
    _write_optional_uvarint(out, m.top_n)


def _enc_find_value_resp(out: bytearray, m: FindValueResponse) -> None:
    _response_head(out, m)
    out.append(0x01 if m.found else 0x00)
    _write_wrapped_value(out, m.value)
    _write_contacts(out, m.contacts)


def _enc_fault(out: bytearray, m: RemoteFault) -> None:
    _write_string(out, m.kind)
    _write_string(out, m.message)


_ENCODERS: dict[type, tuple[int, Any]] = {
    PingRequest: (_PING_REQ, _enc_ping_req),
    PingResponse: (_PING_RESP, _enc_ping_resp),
    StoreRequest: (_STORE_REQ, _enc_store_req),
    StoreResponse: (_STORE_RESP, _enc_store_resp),
    AppendRequest: (_APPEND_REQ, _enc_append_req),
    AppendResponse: (_APPEND_RESP, _enc_append_resp),
    FindNodeRequest: (_FIND_NODE_REQ, _enc_find_node_req),
    FindNodeResponse: (_FIND_NODE_RESP, _enc_find_node_resp),
    FindValueRequest: (_FIND_VALUE_REQ, _enc_find_value_req),
    FindValueResponse: (_FIND_VALUE_RESP, _enc_find_value_resp),
    RemoteFault: (_FAULT, _enc_fault),
}


# --------------------------------------------------------------------- #
# frame decode
# --------------------------------------------------------------------- #


def decode_frame(data: bytes) -> tuple[int, Any]:
    """Inverse of :func:`encode_frame`: ``(request_id, message)``.

    Raises :class:`~repro.core.codec.CodecError` on any malformed input --
    bad magic, unknown frame type, truncation, trailing bytes.
    """
    if type(data) is not bytes:
        data = bytes(data)  # slices of it key the intern tables
    if len(data) < _HEADER.size:
        raise CodecError("truncated frame header")
    magic, version, type_byte = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic:#x}")
    if version != _VERSION:
        raise CodecError(f"unsupported wire version {version}")
    decoder = _DECODERS.get(type_byte)
    if decoder is None:
        raise CodecError(f"unknown frame type {type_byte:#x}")
    request_id, offset = decode_uvarint(data, _HEADER.size)
    message, offset = decoder(data, offset)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return request_id, message


def _read_request_head(data: bytes, offset: int) -> tuple[NodeID, str, int]:
    sender, offset = _read_contact(data, offset)
    return sender.node_id, sender.address, offset


def _dec_ping_req(data: bytes, offset: int):
    sender_id, sender_address, offset = _read_request_head(data, offset)
    return PingRequest(sender_id=sender_id, sender_address=sender_address), offset


def _dec_ping_resp(data: bytes, offset: int):
    responder_id, offset = _read_id(data, offset)
    if offset >= len(data):
        raise CodecError("truncated alive flag")
    alive = data[offset] == 0x01
    return PingResponse(responder_id=responder_id, alive=alive), offset + 1


def _dec_store_req(data: bytes, offset: int):
    sender_id, sender_address, offset = _read_request_head(data, offset)
    key, offset = _read_id(data, offset)
    value, offset = _read_wrapped_value(data, offset)
    return (
        StoreRequest(
            sender_id=sender_id, sender_address=sender_address, key=key, value=value
        ),
        offset,
    )


def _dec_store_resp(data: bytes, offset: int):
    responder_id, offset = _read_id(data, offset)
    if offset >= len(data):
        raise CodecError("truncated stored flag")
    stored = data[offset] == 0x01
    return StoreResponse(responder_id=responder_id, stored=stored), offset + 1


def _dec_append_req(data: bytes, offset: int):
    sender_id, sender_address, offset = _read_request_head(data, offset)
    key, offset = _read_id(data, offset)
    owner, offset = _read_string(data, offset)
    block_type, offset = _read_string(data, offset)
    increments, offset = _read_entries_ordered(data, offset)
    if offset >= len(data):
        raise CodecError("truncated increments_if_new flag")
    flag = data[offset]
    offset += 1
    increments_if_new: dict[str, int] | None = None
    if flag == 0x01:
        increments_if_new, offset = _read_entries_ordered(data, offset)
    elif flag != 0x00:
        raise CodecError(f"bad increments_if_new flag {flag:#x}")
    return (
        AppendRequest(
            sender_id=sender_id,
            sender_address=sender_address,
            key=key,
            owner=owner,
            block_type=block_type,
            increments=increments,
            increments_if_new=increments_if_new,
        ),
        offset,
    )


def _dec_append_resp(data: bytes, offset: int):
    responder_id, offset = _read_id(data, offset)
    if offset >= len(data):
        raise CodecError("truncated applied flag")
    applied = data[offset] == 0x01
    block_size, offset = decode_uvarint(data, offset + 1)
    return (
        AppendResponse(responder_id=responder_id, applied=applied, block_size=block_size),
        offset,
    )


def _dec_find_node_req(data: bytes, offset: int):
    sender_id, sender_address, offset = _read_request_head(data, offset)
    target, offset = _read_id(data, offset)
    count, offset = decode_uvarint(data, offset)
    return (
        FindNodeRequest(
            sender_id=sender_id, sender_address=sender_address, target=target, count=count
        ),
        offset,
    )


def _dec_find_node_resp(data: bytes, offset: int):
    responder_id, offset = _read_id(data, offset)
    contacts, offset = _read_contacts(data, offset)
    return FindNodeResponse(responder_id=responder_id, contacts=contacts), offset


def _dec_find_value_req(data: bytes, offset: int):
    sender_id, sender_address, offset = _read_request_head(data, offset)
    key, offset = _read_id(data, offset)
    count, offset = decode_uvarint(data, offset)
    top_n, offset = _read_optional_uvarint(data, offset)
    return (
        FindValueRequest(
            sender_id=sender_id,
            sender_address=sender_address,
            key=key,
            count=count,
            top_n=top_n,
        ),
        offset,
    )


def _dec_find_value_resp(data: bytes, offset: int):
    responder_id, offset = _read_id(data, offset)
    if offset >= len(data):
        raise CodecError("truncated found flag")
    found = data[offset] == 0x01
    value, offset = _read_wrapped_value(data, offset + 1)
    contacts, offset = _read_contacts(data, offset)
    return (
        FindValueResponse(
            responder_id=responder_id, found=found, value=value, contacts=contacts
        ),
        offset,
    )


def _dec_fault(data: bytes, offset: int):
    kind, offset = _read_string(data, offset)
    message, offset = _read_string(data, offset)
    return RemoteFault(kind=kind, message=message), offset


_DECODERS = {
    _PING_REQ: _dec_ping_req,
    _PING_RESP: _dec_ping_resp,
    _STORE_REQ: _dec_store_req,
    _STORE_RESP: _dec_store_resp,
    _APPEND_REQ: _dec_append_req,
    _APPEND_RESP: _dec_append_resp,
    _FIND_NODE_REQ: _dec_find_node_req,
    _FIND_NODE_RESP: _dec_find_node_resp,
    _FIND_VALUE_REQ: _dec_find_value_req,
    _FIND_VALUE_RESP: _dec_find_value_resp,
    _FAULT: _dec_fault,
}
