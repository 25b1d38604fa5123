"""LEB128 varints and the tagged value union of the DHARMA wire format.

Two pieces of vocabulary live here.  :func:`encode_uvarint` /
:func:`decode_uvarint` are unsigned LEB128 ("uvarint"): 7 value bits per
byte, high bit says "more bytes follow" -- the standard varint of protobuf
and WebAssembly.  :func:`encode_value` / :func:`decode_value` are a tagged
union over plain data (None/bool/int/float/str/bytes/list/dict): every RPC
frame of :mod:`repro.net.wire` carries stored values in it, and Likir signs
a value's sorted rendering in it (:meth:`repro.dht.likir.SignedValue.canonical_bytes`).
"""

from __future__ import annotations

import struct

__all__ = [
    "CodecError",
    "encode_uvarint",
    "decode_uvarint",
    "encode_value",
    "decode_value",
]


class CodecError(ValueError):
    """Raised on malformed binary data."""


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


# --------------------------------------------------------------------- #
# generic values (tagged union)
# --------------------------------------------------------------------- #

#: Tag bytes of the generic value union used by the RPC wire format
#: (:mod:`repro.net.wire`).  Dict entries are written in **insertion order**,
#: not sorted: the golden wire bytes pin that order.  Likir credentials do not
#: depend on it -- they cover a sorted rendering of the value.
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
