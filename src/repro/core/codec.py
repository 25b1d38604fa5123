"""Struct-packed varint binary codec for the four DHARMA block types.

This module defines a compact, deterministic binary encoding for the block
payloads of :mod:`repro.core.blocks`.  Cluster snapshots store blocks in it,
and ``dharma profile`` sizes a dataset's blocks with it.  Block records are
not what travels between nodes: RPC frames come from :mod:`repro.net.wire`
(built on this module's varint and value vocabulary), and bytes on the wire
are counted by the transport (:mod:`repro.net.base`).

========  ==========================================================
offset    content
========  ==========================================================
0         magic ``0xDA``
1         format version (``0x01``)
2         block-type byte: ``1``-``4``
3...      owner name: uvarint byte-length + UTF-8 bytes
...       body (see below)
========  ==========================================================

Counter blocks (types 1-3) encode their entries as a uvarint count followed
by ``(uvarint name-length, UTF-8 name, uvarint counter)`` triples **sorted
by name**, so equal blocks always serialize to equal bytes.  The URI block
(type 4) encodes the URI as one length-prefixed string.

All integers use unsigned LEB128 ("uvarint"): 7 value bits per byte, high
bit says "more bytes follow" -- the standard varint of protobuf and WebAssembly.

Beyond block payloads, the same header/varint vocabulary encodes two
*cluster-state* record types used by the snapshot/restore layer
(:mod:`repro.simulation.snapshot`): overlay-membership records (type byte
``0x10``: certified user, 20-byte node id, transport address, joined flag)
and routing-table records (type byte ``0x11``: owner id, bucket parameter
``k``, then each non-empty k-bucket with its contacts and replacement-cache
entries in least- to most-recently-seen order).  Contact order is part of
the encoding because restoring a table must reproduce the exact LRU state,
not just the membership.
"""

from __future__ import annotations

import struct

from repro.core.blocks import BlockType

__all__ = [
    "CodecError",
    "encode_uvarint",
    "decode_uvarint",
    "encode_block",
    "decode_block",
    "encode_membership",
    "decode_membership",
    "encode_routing_table",
    "decode_routing_table",
    "encode_value",
    "decode_value",
]

_MAGIC = 0xDA
_VERSION = 1
#: Cluster-state record types (snapshot/restore), disjoint from the block
#: type bytes ``1``-``4``.
_MEMBERSHIP_TYPE = 0x10
_ROUTING_TYPE = 0x11
_HEADER = struct.Struct("<BBB")

#: Node-id size in membership and routing-table records (the 160-bit SHA-1
#: key space of Section IV-A).
KEY_BYTES = 20


class CodecError(ValueError):
    """Raised on malformed binary block data."""


# --------------------------------------------------------------------- #
# varints
# --------------------------------------------------------------------- #


def encode_uvarint(value: int) -> bytes:
    """Unsigned LEB128 encoding of *value* (must be >= 0)."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one LEB128 integer; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated uvarint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CodecError("uvarint too long")


def _write_string(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += encode_uvarint(len(raw))
    out += raw


def _read_string(data: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise CodecError("truncated string")
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 string: {exc}") from None


def _write_entries(out: bytearray, entries: dict[str, int]) -> None:
    out += encode_uvarint(len(entries))
    for name in sorted(entries):
        _write_string(out, name)
        out += encode_uvarint(entries[name])


def _read_entries(data: bytes, offset: int) -> tuple[dict[str, int], int]:
    count, offset = decode_uvarint(data, offset)
    entries: dict[str, int] = {}
    for _ in range(count):
        name, offset = _read_string(data, offset)
        value, offset = decode_uvarint(data, offset)
        entries[name] = value
    return entries, offset


# --------------------------------------------------------------------- #
# whole blocks
# --------------------------------------------------------------------- #


def encode_block(payload: dict) -> bytes:
    """Serialize a block payload (the ``to_payload()`` dict) to bytes."""
    try:
        block_type = BlockType(payload["type"])
        owner = payload["owner"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CodecError(f"not a block payload: {payload!r}") from exc
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, int(block_type.value)))
    _write_string(out, owner)
    if block_type is BlockType.RESOURCE_URI:
        _write_string(out, payload["uri"])
    else:
        _write_entries(out, payload["entries"])
    return bytes(out)


def decode_block(data: bytes) -> dict:
    """Inverse of :func:`encode_block`; returns the payload dict."""
    type_byte, offset = _check_header(data)
    block_type = _block_type_for(type_byte)
    owner, offset = _read_string(data, offset)
    if block_type is BlockType.RESOURCE_URI:
        uri, offset = _read_string(data, offset)
        _check_consumed(data, offset)
        return {"owner": owner, "type": block_type.value, "uri": uri}
    entries, offset = _read_entries(data, offset)
    _check_consumed(data, offset)
    return {"owner": owner, "type": block_type.value, "entries": entries}


def _check_header(data: bytes) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise CodecError("truncated header")
    magic, version, type_byte = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic:#x}")
    if version != _VERSION:
        raise CodecError(f"unsupported codec version {version}")
    return type_byte, _HEADER.size


def _block_type_for(type_byte: int) -> BlockType:
    try:
        return BlockType(str(type_byte))
    except ValueError:
        raise CodecError(f"unknown block type byte {type_byte:#x}") from None


def _check_consumed(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")


# --------------------------------------------------------------------- #
# cluster-state records (snapshot/restore)
# --------------------------------------------------------------------- #


def _write_node_id(out: bytearray, node_id: bytes) -> None:
    if len(node_id) != KEY_BYTES:
        raise CodecError(f"node id must be {KEY_BYTES} bytes, got {len(node_id)}")
    out += node_id


def _read_node_id(data: bytes, offset: int) -> tuple[bytes, int]:
    end = offset + KEY_BYTES
    if end > len(data):
        raise CodecError("truncated node id")
    return data[offset:end], end


def encode_membership(user: str, node_id: bytes, address: str, joined: bool) -> bytes:
    """Serialize one overlay-membership record (type byte ``0x10``)."""
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, _MEMBERSHIP_TYPE))
    _write_string(out, user)
    _write_node_id(out, node_id)
    _write_string(out, address)
    out.append(0x01 if joined else 0x00)
    return bytes(out)


def decode_membership(data: bytes) -> tuple[str, bytes, str, bool]:
    """Inverse of :func:`encode_membership`: ``(user, node_id, address, joined)``."""
    type_byte, offset = _check_header(data)
    if type_byte != _MEMBERSHIP_TYPE:
        raise CodecError(f"not a membership record (type byte {type_byte:#x})")
    user, offset = _read_string(data, offset)
    node_id, offset = _read_node_id(data, offset)
    address, offset = _read_string(data, offset)
    if offset >= len(data):
        raise CodecError("truncated joined flag")
    flag = data[offset]
    offset += 1
    if flag not in (0x00, 0x01):
        raise CodecError(f"bad joined flag {flag:#x}")
    _check_consumed(data, offset)
    return user, node_id, address, flag == 0x01


#: One contact on the wire: ``(20-byte node id, transport address)``.
ContactRecord = tuple[bytes, str]

#: One k-bucket on the wire: ``(bucket index, contacts, replacement cache)``,
#: both contact lists in least- to most-recently-seen order.
BucketRecord = tuple[int, list[ContactRecord], list[ContactRecord]]


def _write_contacts(out: bytearray, contacts: list[ContactRecord]) -> None:
    out += encode_uvarint(len(contacts))
    for node_id, address in contacts:
        _write_node_id(out, node_id)
        _write_string(out, address)


def _read_contacts(data: bytes, offset: int) -> tuple[list[ContactRecord], int]:
    count, offset = decode_uvarint(data, offset)
    contacts: list[ContactRecord] = []
    for _ in range(count):
        node_id, offset = _read_node_id(data, offset)
        address, offset = _read_string(data, offset)
        contacts.append((node_id, address))
    return contacts, offset


def encode_routing_table(owner_id: bytes, k: int, buckets: list[BucketRecord]) -> bytes:
    """Serialize one routing-table record (type byte ``0x11``).

    *buckets* lists only the non-empty k-buckets; contact order within a
    bucket is significant (it **is** the LRU order).
    """
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, _ROUTING_TYPE))
    _write_node_id(out, owner_id)
    out += encode_uvarint(k)
    out += encode_uvarint(len(buckets))
    for index, contacts, replacements in buckets:
        out += encode_uvarint(index)
        _write_contacts(out, contacts)
        _write_contacts(out, replacements)
    return bytes(out)


def decode_routing_table(data: bytes) -> tuple[bytes, int, list[BucketRecord]]:
    """Inverse of :func:`encode_routing_table`: ``(owner_id, k, buckets)``."""
    type_byte, offset = _check_header(data)
    if type_byte != _ROUTING_TYPE:
        raise CodecError(f"not a routing-table record (type byte {type_byte:#x})")
    owner_id, offset = _read_node_id(data, offset)
    k, offset = decode_uvarint(data, offset)
    bucket_count, offset = decode_uvarint(data, offset)
    buckets: list[BucketRecord] = []
    for _ in range(bucket_count):
        index, offset = decode_uvarint(data, offset)
        contacts, offset = _read_contacts(data, offset)
        replacements, offset = _read_contacts(data, offset)
        buckets.append((index, contacts, replacements))
    _check_consumed(data, offset)
    return owner_id, k, buckets


# --------------------------------------------------------------------- #
# generic values (tagged union)
# --------------------------------------------------------------------- #

#: Tag bytes of the generic value union used by the RPC wire format
#: (:mod:`repro.net.wire`).  Dict entries are written in **insertion order**,
#: not sorted: Likir credentials are HMACs over ``repr(value)``, and a
#: round-trip that re-ordered keys would silently invalidate every signature.
_V_NONE = 0x00
_V_FALSE = 0x01
_V_TRUE = 0x02
_V_INT_POS = 0x03
_V_INT_NEG = 0x04
_V_FLOAT = 0x05
_V_STR = 0x06
_V_BYTES = 0x07
_V_LIST = 0x08
_V_DICT = 0x09

_FLOAT = struct.Struct("<d")


def encode_value(value) -> bytes:
    """Serialize a plain-data value (None/bool/int/float/str/bytes/list/
    tuple/dict) to the tagged-union wire form.

    Tuples encode as lists (and decode as lists); dict keys must be strings
    and keep their insertion order on the wire.  Anything else raises
    :class:`CodecError`.
    """
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def _write_value(out: bytearray, value) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif isinstance(value, int):
        if value >= 0:
            out.append(_V_INT_POS)
            out += encode_uvarint(value)
        else:
            out.append(_V_INT_NEG)
            out += encode_uvarint(-value)
    elif isinstance(value, float):
        out.append(_V_FLOAT)
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        out.append(_V_STR)
        _write_string(out, value)
    elif isinstance(value, bytes):
        out.append(_V_BYTES)
        out += encode_uvarint(len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(_V_LIST)
        out += encode_uvarint(len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.append(_V_DICT)
        out += encode_uvarint(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _write_string(out, key)
            _write_value(out, item)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def decode_value(data: bytes, offset: int = 0):
    """Inverse of :func:`encode_value`; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise CodecError("truncated value tag")
    tag = data[offset]
    offset += 1
    if tag == _V_NONE:
        return None, offset
    if tag == _V_TRUE:
        return True, offset
    if tag == _V_FALSE:
        return False, offset
    if tag == _V_INT_POS:
        return decode_uvarint(data, offset)
    if tag == _V_INT_NEG:
        value, offset = decode_uvarint(data, offset)
        return -value, offset
    if tag == _V_FLOAT:
        end = offset + _FLOAT.size
        if end > len(data):
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(data, offset)[0], end
    if tag == _V_STR:
        return _read_string(data, offset)
    if tag == _V_BYTES:
        length, offset = decode_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return data[offset:end], end
    if tag == _V_LIST:
        count, offset = decode_uvarint(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == _V_DICT:
        count, offset = decode_uvarint(data, offset)
        mapping = {}
        for _ in range(count):
            key, offset = _read_string(data, offset)
            item, offset = decode_value(data, offset)
            mapping[key] = item
        return mapping, offset
    raise CodecError(f"unknown value tag {tag:#x}")
