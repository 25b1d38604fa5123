"""Round-trip and golden-bytes tests for the binary block codec."""

import pytest

from repro.core.blocks import (
    ResourceTagsBlock,
    ResourceURIBlock,
    TagNeighboursBlock,
    TagResourcesBlock,
)
from repro.core.codec import (
    CodecError,
    decode_block,
    decode_membership,
    decode_routing_table,
    decode_uvarint,
    encode_block,
    encode_membership,
    encode_routing_table,
    encode_uvarint,
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


class TestRoundTrip:
    """encode → decode is the identity for all four block types."""

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
        ],
    )
    def test_counter_blocks(self, block):
        payload = block.to_payload()
        assert decode_block(encode_block(payload)) == payload

    @pytest.mark.parametrize(
        "block",
        [
            ResourceURIBlock(owner="nevermind", uri="urn:dharma:nevermind"),
            ResourceURIBlock(owner="emptyuri", uri=""),
            ResourceURIBlock(owner="ünïcode", uri="https://example.org/ü?q=日本"),
        ],
    )
    def test_uri_blocks(self, block):
        payload = block.to_payload()
        assert decode_block(encode_block(payload)) == payload

    def test_encoding_is_deterministic_under_dict_order(self):
        a = {"owner": "r", "type": "1", "entries": {"x": 1, "y": 2}}
        b = {"owner": "r", "type": "1", "entries": {"y": 2, "x": 1}}
        assert encode_block(a) == encode_block(b)


class TestGoldenBytes:
    """Pin the exact wire format so it cannot drift silently."""

    GOLDEN = {
        "r_bar": (
            {"owner": "nevermind", "type": "1", "entries": {"rock": 3, "grunge": 1}},
            "da0101096e657665726d696e6402066772756e67650104726f636b03",
        ),
        "t_bar": (
            {"owner": "rock", "type": "2", "entries": {"nevermind": 3}},
            "da010204726f636b01096e657665726d696e6403",
        ),
        "t_hat": (
            {"owner": "rock", "type": "3", "entries": {"grunge": 2, "90s": 1}},
            "da010304726f636b020339307301066772756e676502",
        ),
        "r_tilde": (
            {"owner": "nevermind", "type": "4", "uri": "urn:dharma:nevermind"},
            "da0104096e657665726d696e641475726e3a646861726d613a6e657665726d696e64",
        ),
        "empty_t_hat": (
            {"owner": "lonely", "type": "3", "entries": {}},
            "da0103066c6f6e656c7900",
        ),
        "unicode_t_bar": (
            {"owner": "müsic", "type": "2", "entries": {"тег": 130}},
            "da010206" + "6dc3bc736963" + "0106" + "d182d0b5d0b3" + "8201",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_block_golden_bytes(self, name):
        payload, expected_hex = self.GOLDEN[name]
        assert encode_block(payload).hex() == expected_hex
        assert decode_block(bytes.fromhex(expected_hex)) == payload


class TestMalformedData:
    def test_bad_magic(self):
        good = encode_block({"owner": "r", "type": "1", "entries": {}})
        with pytest.raises(CodecError):
            decode_block(b"\x00" + good[1:])

    def test_bad_version(self):
        good = encode_block({"owner": "r", "type": "1", "entries": {}})
        with pytest.raises(CodecError):
            decode_block(good[:1] + b"\x63" + good[2:])

    def test_unknown_type_byte(self):
        good = encode_block({"owner": "r", "type": "1", "entries": {}})
        with pytest.raises(CodecError):
            decode_block(good[:2] + b"\x09" + good[3:])

    def test_truncated_and_trailing(self):
        good = encode_block({"owner": "res", "type": "1", "entries": {"a": 1}})
        with pytest.raises(CodecError):
            decode_block(good[:-1])
        with pytest.raises(CodecError):
            decode_block(good + b"\x00")

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="truncated header"):
            decode_block(b"\xda\x01")

    def test_invalid_utf8_owner(self):
        good = encode_block({"owner": "r", "type": "1", "entries": {}})
        with pytest.raises(CodecError, match="UTF-8"):
            decode_block(good[:4] + b"\xff" + good[5:])

    def test_cluster_state_records_are_not_blocks(self):
        membership = encode_membership("u", bytes(20), "node-0", True)
        routing = encode_routing_table(bytes(20), 8, [])
        for record in (membership, routing):
            with pytest.raises(CodecError, match="unknown block type"):
                decode_block(record)
        with pytest.raises(CodecError):
            decode_membership(encode_block({"owner": "r", "type": "1", "entries": {}}))

    def test_non_block_payload_rejected(self):
        with pytest.raises(CodecError):
            encode_block({"random": "dict"})
        with pytest.raises(CodecError):
            encode_block({"owner": "r", "type": "9", "entries": {}})


class TestMembershipRecords:
    def test_golden_bytes(self):
        encoded = encode_membership("alice", bytes(range(20)), "node-3", True)
        assert encoded.hex() == (
            "da011005616c696365000102030405060708090a0b0c0d0e0f10111213066e6f64652d3301"
        )

    def test_round_trip(self):
        for joined in (True, False):
            encoded = encode_membership("u~42", bytes(20), "node-1007", joined)
            assert decode_membership(encoded) == ("u~42", bytes(20), "node-1007", joined)

    def test_rejects_bad_node_id_length(self):
        with pytest.raises(CodecError):
            encode_membership("u", b"\x01" * 19, "node-0", True)

    def test_rejects_bad_joined_flag(self):
        encoded = bytearray(encode_membership("u", bytes(20), "node-0", True))
        encoded[-1] = 0x02
        with pytest.raises(CodecError):
            decode_membership(bytes(encoded))

    def test_rejects_wrong_record_type(self):
        routing = encode_routing_table(bytes(20), 8, [])
        with pytest.raises(CodecError):
            decode_membership(routing)


class TestRoutingTableRecords:
    BUCKETS = [
        (0, [(bytes([1]) * 20, "node-1")], []),
        (159, [(bytes([2]) * 20, "node-2"), (bytes([3]) * 20, "node-7")],
         [(bytes([4]) * 20, "node-9")]),
    ]

    def test_golden_bytes(self):
        encoded = encode_routing_table(bytes(range(20)), 2, self.BUCKETS)
        assert encoded.hex() == (
            "da0111000102030405060708090a0b0c0d0e0f101112130202000101"
            "01010101010101010101010101010101010101066e6f64652d31009f"
            "01020202020202020202020202020202020202020202066e6f64652d"
            "320303030303030303030303030303030303030303066e6f64652d37"
            "010404040404040404040404040404040404040404066e6f64652d39"
        )

    def test_round_trip_preserves_lru_order(self):
        encoded = encode_routing_table(bytes(range(20)), 2, self.BUCKETS)
        owner, k, buckets = decode_routing_table(encoded)
        assert owner == bytes(range(20))
        assert k == 2
        assert buckets == self.BUCKETS

    def test_empty_table_round_trips(self):
        owner, k, buckets = decode_routing_table(encode_routing_table(bytes(20), 8, []))
        assert (owner, k, buckets) == (bytes(20), 8, [])

    def test_rejects_wrong_record_type(self):
        membership = encode_membership("u", bytes(20), "node-0", True)
        with pytest.raises(CodecError):
            decode_routing_table(membership)

    def test_rejects_truncation(self):
        encoded = encode_routing_table(bytes(range(20)), 2, self.BUCKETS)
        with pytest.raises(CodecError):
            decode_routing_table(encoded[:-3])
