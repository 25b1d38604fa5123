"""The codec's LEB128 varints, and DHARMA blocks in its value union.

The value union's golden bytes and fuzzing live with the wire-format tests
(``tests/net/test_rpc_wire_codec.py``).
"""

import pytest

from repro.core.blocks import (
    ResourceTagsBlock,
    ResourceURIBlock,
    TagNeighboursBlock,
    TagResourcesBlock,
)
from repro.core.codec import (
    CodecError,
    decode_uvarint,
    decode_value,
    encode_uvarint,
    encode_value,
)


class TestUvarint:
    @pytest.mark.parametrize(
        "value, encoded",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),
            (2**32, b"\x80\x80\x80\x80\x10"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert encode_uvarint(value) == encoded
        assert decode_uvarint(encoded) == (value, len(encoded))

    def test_round_trip_sweep(self):
        for value in list(range(1000)) + [2**k for k in range(60)]:
            decoded, offset = decode_uvarint(encode_uvarint(value))
            assert decoded == value
            assert offset == len(encode_uvarint(value))

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_uvarint(b"\x80")

    def test_over_long_rejected(self):
        with pytest.raises(CodecError, match="too long"):
            decode_uvarint(b"\x80" * 10 + b"\x01")

    def test_decodes_from_an_offset(self):
        data = b"\xff" + encode_uvarint(300) + b"\x07"
        assert decode_uvarint(data, 1) == (300, 3)
        assert decode_uvarint(data, 3) == (7, 4)


class TestBlocksAsValues:
    """A STORE carries every block type as its payload dict in the value
    union: decoding gives the payload back, entry order included."""

    @pytest.mark.parametrize(
        "block",
        [
            ResourceTagsBlock("nevermind", {"rock": 3, "grunge": 1, "90s": 2}),
            TagResourcesBlock("rock", {"nevermind": 3, "in-utero": 1}),
            TagNeighboursBlock("rock", {"grunge": 2, "alternative": 7}),
            ResourceTagsBlock("empty-res", {}),
            TagResourcesBlock("empty-tag", {}),
            TagNeighboursBlock("lonely", {}),
            TagResourcesBlock("müsic", {"тег": 130, "日本語": 1, "café": 2**40}),
            ResourceURIBlock(owner="nevermind", uri="urn:dharma:nevermind"),
            ResourceURIBlock(owner="emptyuri", uri=""),
            ResourceURIBlock(owner="ünïcode", uri="https://example.org/ü?q=日本"),
        ],
    )
    def test_payload_round_trips(self, block):
        payload = block.to_payload()
        encoded = encode_value(payload)
        decoded, offset = decode_value(encoded)
        assert decoded == payload
        assert offset == len(encoded)
        assert list(decoded) == list(payload)
        if "entries" in payload:
            assert list(decoded["entries"]) == list(payload["entries"])

    #: What a STORE carries for each block type: the payload dict in the
    #: value union, keys in ``to_payload`` order.  Pinned so the stored form
    #: of a block cannot drift silently.
    GOLDEN = {
        "r_bar": (
            ResourceTagsBlock("nevermind", {"rock": 3, "grunge": 1}),
            "0903056f776e657206096e657665726d696e64047479706506013107656e7472696573"
            "090204726f636b0303066772756e67650301",
        ),
        "t_bar": (
            TagResourcesBlock("rock", {"nevermind": 3}),
            "0903056f776e65720604726f636b047479706506013207656e74726965730901096e65"
            "7665726d696e640303",
        ),
        "t_hat": (
            TagNeighboursBlock("rock", {"grunge": 2, "90s": 1}),
            "0903056f776e65720604726f636b047479706506013307656e74726965730902066772"
            "756e67650302033930730301",
        ),
        "r_tilde": (
            ResourceURIBlock(owner="nevermind", uri="urn:dharma:nevermind"),
            "0903056f776e657206096e657665726d696e6404747970650601340375726906147572"
            "6e3a646861726d613a6e657665726d696e64",
        ),
        "empty_t_hat": (
            TagNeighboursBlock("lonely", {}),
            "0903056f776e657206066c6f6e656c79047479706506013307656e74726965730900",
        ),
        "unicode_t_bar": (
            TagResourcesBlock("müsic", {"тег": 130}),
            "0903056f776e657206066dc3bc736963047479706506013207656e7472696573090106"
            "d182d0b5d0b3038201",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_payload_golden_bytes(self, name):
        block, expected_hex = self.GOLDEN[name]
        assert encode_value(block.to_payload()).hex() == expected_hex
        decoded, _ = decode_value(bytes.fromhex(expected_hex))
        assert type(block).from_payload(decoded) == block

    def test_truncated_payload_is_refused(self):
        encoded = encode_value(ResourceTagsBlock("res", {"a": 1}).to_payload())
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_value(encoded[:cut])

    def test_invalid_utf8_owner_is_refused(self):
        encoded = bytearray(encode_value({"owner": "r", "type": "1", "entries": {}}))
        owner_byte = encoded.index(b"r"[0], encoded.index(b"owner") + len(b"owner"))
        encoded[owner_byte] = 0xFF
        with pytest.raises(CodecError, match="UTF-8"):
            decode_value(bytes(encoded))
