"""The RPC wire format: golden bytes, round-trip identity, hostile input.

Three layers of protection:

* **golden bytes** -- the exact hex encoding of one frame per type is
  pinned.  These are protocol constants: two ``dharma serve`` processes from
  different builds must interoperate, so any byte-level change is a wire
  break and must bump the version byte (and these tests).
* **round-trip identity** -- ``decode(encode(m)) == m`` for handcrafted and
  randomly generated messages (property test, seeded).
* **hostile input** -- truncations at every prefix length and random byte
  corruptions must either raise :class:`~repro.core.codec.CodecError` or
  decode to a well-formed message; no other exception may escape, because
  ``UdpTransport`` counts a ``CodecError`` as one malformed frame and drops
  it, while an uncaught exception would kill the receive loop.

The decoder resolves contact records and ids through two intern tables
(``wire._CONTACTS`` / ``wire._IDS``).  The round-trip and hostile-input
classes therefore run twice, the second time with the tables warmed by the
golden frames, and ``TestInternTables`` holds the fast path to the parser:
same answer, same refusals, bounded memory.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.wire as wire
from repro.core.codec import CodecError, decode_value, encode_value
from repro.dht.likir import Identity, LikirAuthError, SignedValue
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
    wire_size,
)
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact
from repro.net.wire import RemoteFault, decode_frame, encode_frame, fault_frame, raise_fault

A = NodeID.hash_of("a")
B = NodeID.hash_of("b")
K = NodeID.hash_of("k")
T = NodeID.hash_of("t")
C = NodeID.hash_of("c")


def req(cls, **kwargs):
    return cls(sender_id=A, sender_address="h:1", **kwargs)


#: (request_id, message, expected bytes) -- one golden vector per frame type.
GOLDEN = [
    (
        1,
        PingRequest(sender_id=A, sender_address="127.0.0.1:9000"),
        "da01200186f7e437faa5a7fce15d1ddcb9eaeaea377667b80e3132372e302e302e313a39303030",
    ),
    (
        1,
        PingResponse(responder_id=B),
        "da012101e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f9801",
    ),
    (
        2,
        req(
            StoreRequest,
            key=K,
            value={"owner": "o", "type": "1", "entries": {"b": 2, "a": 1}},
        ),
        "da01220286f7e437faa5a7fce15d1ddcb9eaeaea377667b803683a31"
        "13fbd79c3d390e5d6585a21e11ff5ec1970cff0c"
        "000903056f776e657206016f047479706506013107656e747269657309020162030201610301",
    ),
    (
        2,
        StoreResponse(responder_id=B, stored=True),
        "da012302e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f9801",
    ),
    (
        3,
        req(
            AppendRequest,
            key=K,
            owner="o",
            block_type="2",
            increments={"x": 3},
            increments_if_new={"x": 1},
        ),
        "da01240386f7e437faa5a7fce15d1ddcb9eaeaea377667b803683a31"
        "13fbd79c3d390e5d6585a21e11ff5ec1970cff0c"
        "016f0132010178030101017801",
    ),
    (
        3,
        AppendResponse(responder_id=B, applied=True, block_size=7),
        "da012503e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f980107",
    ),
    (
        4,
        req(FindNodeRequest, target=T, count=20),
        "da01260486f7e437faa5a7fce15d1ddcb9eaeaea377667b803683a31"
        "8efd86fb78a56a5145ed7739dcb00c78581c537514",
    ),
    (
        4,
        FindNodeResponse(responder_id=B, contacts=(ContactInfo(C, "h:2"),)),
        "da012704e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f9801"
        "84a516841ba77a5b4648de2cd0dfcb30ea46dbb403683a32",
    ),
    (
        5,
        req(FindValueRequest, key=K, count=20, top_n=10),
        "da01280586f7e437faa5a7fce15d1ddcb9eaeaea377667b803683a31"
        "13fbd79c3d390e5d6585a21e11ff5ec1970cff0c14010a",
    ),
    (
        5,
        FindValueResponse(
            responder_id=B, found=True, value={"z": [1, -2, 3.5, None, True]}, contacts=()
        ),
        "da012905e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f9801"
        "000901017a080503010402050000000000000c40000200",
    ),
    (
        6,
        RemoteFault(kind="ValueError", message="boom"),
        "da012f060a56616c75654572726f7204626f6f6d",
    ),
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "request_id,message,expected",
        GOLDEN,
        ids=[type(m).__name__ for _, m, _ in GOLDEN],
    )
    def test_encoding_is_pinned(self, request_id, message, expected):
        assert encode_frame(request_id, message).hex() == expected

    @pytest.mark.parametrize(
        "request_id,message,expected",
        GOLDEN,
        ids=[type(m).__name__ for _, m, _ in GOLDEN],
    )
    def test_golden_bytes_decode_back(self, request_id, message, expected):
        assert decode_frame(bytes.fromhex(expected)) == (request_id, message)

    def test_frame_type_bytes_are_stable(self):
        # Byte 2 is the frame type: 0x20..0x29 in declaration order, 0x2F fault.
        types = [bytes.fromhex(expected)[2] for _, _, expected in GOLDEN]
        assert types == [0x20 + i for i in range(10)] + [0x2F]


def _contacts(count: int) -> tuple[ContactInfo, ...]:
    return tuple(
        ContactInfo(NodeID.hash_of(f"n{i}"), f"node-{i:06d}") for i in range(count)
    )


def _counter_block(entries: int) -> dict:
    return {
        "owner": "album-000304",
        "type": "1",
        "entries": {f"tag-{i:03d}": i + 1 for i in range(entries)},
    }


def _signed(value) -> SignedValue:
    return SignedValue.create(Identity(user="client-000", node_id=A, secret=b"s" * 20), K, value)


class TestWireSizeEstimate:
    """``wire_size`` is what the simulator charges to ``bytes_transferred``:
    it must follow the real codec (the old ``len(repr(m))`` read ~2x high)."""

    #: One message of simulator shape per frame type, next to the goldens.
    REPRESENTATIVE = [m for _, m, _ in GOLDEN] + [
        req(StoreRequest, key=K, value=_signed(_counter_block(5))),
        req(StoreRequest, key=K, value=_counter_block(50)),
        req(
            AppendRequest,
            key=K,
            owner="album-000304",
            block_type="2",
            increments={"rock": 1, "indie": 2},
        ),
        FindNodeResponse(responder_id=B, contacts=_contacts(8)),
        FindValueResponse(responder_id=B, found=False, contacts=_contacts(8)),
        FindValueResponse(responder_id=B, found=True, value=_signed(_counter_block(5))),
    ]

    def test_one_contact_type(self):
        assert ContactInfo is Contact

    @pytest.mark.parametrize("message", REPRESENTATIVE, ids=lambda m: type(m).__name__)
    def test_within_a_fifth_of_the_encoded_frame(self, message):
        real = len(encode_frame(0, message))
        assert abs(wire_size(message) - real) <= 0.2 * real, (wire_size(message), real)

    def test_covers_every_frame_type(self):
        from repro.net.wire import _ENCODERS

        assert {type(m) for m in self.REPRESENTATIVE} == set(_ENCODERS)

    def test_counter_block_response_size_is_pinned(self):
        """The exact size the simulator charges for a FIND_VALUE hit on a
        signed counter block whose entries hold every scalar kind and a
        nested map (``bool`` sizes as an ``int``)."""
        block = {
            "owner": "album-1",
            "type": "1",
            "entries": {"rock": 3, "live": True, "w": 0.5, "sub": {"a": 1}},
        }
        identity = Identity(user="alice", node_id=A, secret=b"s" * 20)
        value = SignedValue.create(identity, K, block)
        message = FindValueResponse(responder_id=B, found=True, value=value)
        # entries: 2 + rock (1+4+2) + live (1+4+2) + w (1+1+9) + sub (1+3+2+(1+1+2)) = 37
        # block: 2 + owner (1+5+2+7) + type (1+4+2+1) + entries (1+7+37) = 70
        # signed: 43 + "alice" 5 + credential 20 + block 70 = 138
        # frame: head 24 + found/envelope 2 + signed 138 + empty contact list 1
        assert len(value.credential) == 20
        assert wire_size(message) == 24 + 2 + 138 + 1 == 165

    def test_grows_with_contacts_and_entries(self):
        def one(n):
            return wire_size(FindNodeResponse(responder_id=B, contacts=_contacts(n)))

        def store(n):
            return wire_size(req(StoreRequest, key=K, value=_counter_block(n)))

        assert one(8) > one(1) > one(0)
        assert store(50) > store(5)


class TestSignedValues:
    def make_signed(self) -> SignedValue:
        identity = Identity(user="alice", node_id=A, secret=b"s" * 20)
        # Deliberately non-sorted dict: the wire preserves insertion order,
        # and the credential covers the sorted rendering either way.
        return SignedValue.create(
            identity, K, {"owner": "alice", "type": "1", "entries": {"b": 2, "a": 1}}
        )

    def test_signed_store_round_trips_with_valid_credential(self):
        signed = self.make_signed()
        frame = encode_frame(7, req(StoreRequest, key=K, value=signed))
        _, decoded = decode_frame(frame)
        assert decoded.value == signed
        # The decoded credential still verifies over the canonical bytes.
        payload = SignedValue.canonical_bytes(
            decoded.value.publisher, decoded.value.key_hex, decoded.value.value
        )
        import hashlib
        import hmac

        assert hmac.compare_digest(
            hmac.new(b"s" * 20, payload, hashlib.sha1).digest(), decoded.value.credential
        )

    def test_signed_find_value_response_round_trips(self):
        signed = self.make_signed()
        message = FindValueResponse(responder_id=B, found=True, value=signed, contacts=())
        assert decode_frame(encode_frame(8, message)) == (8, message)


class TestValueUnion:
    CASES = [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**62,
        -(2**62),
        3.25,
        -0.0,
        "",
        "héllo",
        b"",
        b"\x00\xff",
        [],
        [1, [2, [3]]],
        {},
        {"b": 1, "a": {"nested": [None, False]}},
    ]

    @pytest.mark.parametrize("value", CASES, ids=[repr(c)[:30] for c in CASES])
    def test_round_trip_identity(self, value):
        data = encode_value(value)
        decoded, offset = decode_value(data)
        assert offset == len(data)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuples_decode_as_lists(self):
        decoded, _ = decode_value(encode_value((1, 2)))
        assert decoded == [1, 2]

    def test_dict_insertion_order_is_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        decoded, _ = decode_value(encode_value(value))
        assert list(decoded) == ["z", "a", "m"]
        assert repr(decoded) == repr(value)

    def test_unencodable_types_raise(self):
        with pytest.raises(CodecError):
            encode_value(object())
        with pytest.raises(CodecError):
            encode_value({1: "non-string key"})

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode_value(b"\x7f")


def random_value(rng: random.Random, depth: int = 0):
    kinds = ["none", "bool", "int", "float", "str", "bytes"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-(2**40), 2**40)
    if kind == "float":
        return rng.uniform(-1e9, 1e9)
    if kind == "str":
        return "".join(rng.choice("abcxyzéλ☃ ") for _ in range(rng.randint(0, 12)))
    if kind == "bytes":
        return rng.randbytes(rng.randint(0, 12))
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        f"k{i}-{rng.randint(0, 99)}": random_value(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


def random_message(rng: random.Random):
    sender = NodeID.random(rng)
    addr = f"10.0.0.{rng.randint(1, 254)}:{rng.randint(1024, 65535)}"
    choice = rng.randrange(10)
    if choice == 0:
        return PingRequest(sender_id=sender, sender_address=addr)
    if choice == 1:
        return PingResponse(responder_id=sender, alive=rng.random() < 0.5)
    if choice == 2:
        return StoreRequest(
            sender_id=sender, sender_address=addr, key=NodeID.random(rng),
            value=random_value(rng),
        )
    if choice == 3:
        return StoreResponse(responder_id=sender, stored=rng.random() < 0.5)
    if choice == 4:
        return AppendRequest(
            sender_id=sender,
            sender_address=addr,
            key=NodeID.random(rng),
            owner=f"user-{rng.randint(0, 99)}",
            block_type=rng.choice(["1", "2", "3"]),
            increments={f"e{i}": rng.randint(1, 9) for i in range(rng.randint(1, 5))},
            increments_if_new=None if rng.random() < 0.5 else {"e0": 1},
        )
    if choice == 5:
        return AppendResponse(
            responder_id=sender, applied=True, block_size=rng.randint(0, 10_000)
        )
    contacts = tuple(
        ContactInfo(NodeID.random(rng), f"10.1.1.{i}:{1024 + i}")
        for i in range(rng.randint(0, 5))
    )
    if choice == 6:
        return FindNodeRequest(
            sender_id=sender, sender_address=addr, target=NodeID.random(rng),
            count=rng.randint(1, 40),
        )
    if choice == 7:
        return FindNodeResponse(responder_id=sender, contacts=contacts)
    if choice == 8:
        return FindValueRequest(
            sender_id=sender,
            sender_address=addr,
            key=NodeID.random(rng),
            count=rng.randint(1, 40),
            top_n=None if rng.random() < 0.5 else rng.randint(1, 100),
        )
    return FindValueResponse(
        responder_id=sender,
        found=rng.random() < 0.5,
        value=random_value(rng),
        contacts=contacts,
    )


class TestRoundTripProperty:
    def test_random_messages_round_trip(self):
        rng = random.Random(0xDA01)
        for i in range(300):
            message = random_message(rng)
            request_id = rng.randint(0, 2**53)
            frame = encode_frame(request_id, message)
            assert decode_frame(frame) == (request_id, message), message

    def test_encode_is_deterministic(self):
        rng_a, rng_b = random.Random(77), random.Random(77)
        for _ in range(50):
            assert encode_frame(1, random_message(rng_a)) == encode_frame(
                1, random_message(rng_b)
            )


class TestHostileInput:
    def frames(self) -> list[bytes]:
        return [bytes.fromhex(expected) for _, _, expected in GOLDEN]

    def test_every_truncation_raises_codec_error(self):
        for frame in self.frames():
            for cut in range(len(frame)):
                with pytest.raises(CodecError):
                    decode_frame(frame[:cut])

    def test_trailing_garbage_raises(self):
        for frame in self.frames():
            with pytest.raises(CodecError):
                decode_frame(frame + b"\x00")

    def test_bad_magic_and_version_raise(self):
        frame = bytearray(self.frames()[0])
        frame[0] = 0xDB
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))
        frame[0] = 0xDA
        frame[1] = 0x02
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_unknown_frame_type_raises(self):
        frame = bytearray(self.frames()[0])
        frame[2] = 0x3A
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_random_corruption_never_escapes_codec_error(self):
        """Flip bytes at random: decode must either succeed (the corruption
        landed in a don't-care position or produced another valid frame) or
        raise CodecError -- nothing else, or the UDP receive loop dies."""
        rng = random.Random(0xBAD)
        frames = self.frames()
        for _ in range(2_000):
            frame = bytearray(rng.choice(frames))
            for _ in range(rng.randint(1, 4)):
                frame[rng.randrange(len(frame))] = rng.randrange(256)
            try:
                decode_frame(bytes(frame))
            except CodecError:
                pass

    def test_random_noise_never_escapes_codec_error(self):
        rng = random.Random(0x40)
        for _ in range(2_000):
            noise = rng.randbytes(rng.randint(0, 64))
            try:
                decode_frame(noise)
            except CodecError:
                pass


def clear_tables() -> None:
    wire._CONTACTS.clear()
    wire._IDS.clear()


@pytest.fixture
def warm_tables():
    """Exactly the records of the golden frames, as a long-running node that
    has heard these peers would hold them."""
    clear_tables()
    for _, _, expected in GOLDEN:
        decode_frame(bytes.fromhex(expected))
    assert wire._CONTACTS and wire._IDS


@pytest.mark.usefixtures("warm_tables")
class TestRoundTripPropertyWarmTables(TestRoundTripProperty):
    pass


@pytest.mark.usefixtures("warm_tables")
class TestHostileInputWarmTables(TestHostileInput):
    pass


def outcome(frame: bytes):
    try:
        return decode_frame(frame)
    except CodecError as exc:
        return ("CodecError", str(exc))


def cold_outcome(frame: bytes):
    """What the field-by-field parser alone makes of *frame*; the tables are
    put back as they were."""
    saved = dict(wire._CONTACTS), dict(wire._IDS)
    clear_tables()
    try:
        return outcome(frame)
    finally:
        clear_tables()
        wire._CONTACTS.update(saved[0])
        wire._IDS.update(saved[1])


def contact_record(node_id: NodeID, address: bytes) -> bytes:
    assert len(address) < 0x80
    return node_id.to_bytes() + bytes([len(address)]) + address


def find_node_response(*records: bytes) -> bytes:
    return bytes.fromhex("da012701") + B.to_bytes() + bytes([len(records)]) + b"".join(records)


class TestInternTables:
    """The tables are a cache of the parser, never a second opinion."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_tables()
        yield
        clear_tables()

    def test_equal_bytes_decode_to_the_same_frozen_record(self):
        frame = encode_frame(1, FindNodeResponse(responder_id=B, contacts=_contacts(3)))
        (_, first), (_, second) = decode_frame(frame), decode_frame(frame)
        assert first == second
        assert all(a is b for a, b in zip(first.contacts, second.contacts))
        assert first.responder_id is second.responder_id
        with pytest.raises(AttributeError):  # frozen: sharing is unobservable
            first.contacts[0].address = "elsewhere"

    def test_any_bytes_like_datagram_decodes_like_bytes(self):
        """Table keys are slices of the datagram, so it is made hashable first."""
        frame = encode_frame(1, FindNodeResponse(responder_id=B, contacts=_contacts(2)))
        for _ in range(2):  # cold, then warm
            assert decode_frame(bytearray(frame)) == decode_frame(frame)
            assert decode_frame(memoryview(frame)) == decode_frame(frame)

    def test_request_head_and_reply_contact_share_one_table(self):
        decode_frame(encode_frame(1, PingRequest(sender_id=C, sender_address="h:2")))
        assert list(wire._CONTACTS.values()) == [ContactInfo(C, "h:2")]
        _, reply = decode_frame(
            encode_frame(2, FindNodeResponse(responder_id=B, contacts=(ContactInfo(C, "h:2"),)))
        )
        assert reply.contacts[0] is wire._CONTACTS[contact_record(C, b"h:2")]
        assert len(wire._CONTACTS) == 1

    def test_one_id_bit_or_one_address_byte_apart_never_alias(self):
        base = ContactInfo(C, "10.0.0.1:9000")
        near_id = ContactInfo(NodeID(C.value ^ 1), "10.0.0.1:9000")
        near_address = ContactInfo(C, "10.0.0.1:9001")
        for _ in range(2):  # cold, then every record warm
            for contact in (base, near_id, near_address, base):
                frame = encode_frame(1, FindNodeResponse(responder_id=B, contacts=(contact,)))
                assert decode_frame(frame)[1].contacts == (contact,)
        assert len(wire._CONTACTS) == 3

    def test_tables_stay_bounded_under_a_flood_of_distinct_contacts(self):
        bound = wire._INTERN_MAX
        per_frame = 16
        for start in range(0, 3 * bound, per_frame):
            contacts = tuple(
                ContactInfo(NodeID(i + 1), f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}:{i % 60_000}")
                for i in range(start, start + per_frame)
            )
            frame = encode_frame(start, FindNodeResponse(responder_id=B, contacts=contacts))
            assert decode_frame(frame) == (start, FindNodeResponse(B, contacts))
            assert len(wire._CONTACTS) <= bound and len(wire._IDS) <= bound
        assert wire._CONTACTS  # emptied when full, then filled again

    def test_threads_racing_on_small_tables_all_decode_right(self, monkeypatch):
        """Every transport of a process shares the tables without a lock: a
        racing clear may lose a record (re-parsed next time), never corrupt
        a decode or let the tables grow."""
        import sys
        import threading

        workers, bound = 8, 8
        monkeypatch.setattr(wire, "_INTERN_MAX", bound)
        frames = []
        for i in range(40):
            contacts = tuple(ContactInfo(NodeID(100 + (i + j) % 24), f"h:{j}") for j in range(5))
            message = FindNodeResponse(responder_id=NodeID(i + 1), contacts=contacts)
            frames.append((encode_frame(i, message), (i, message)))
        wrong, oversize = [], []

        def hammer(offset: int) -> None:
            for turn in range(400):
                frame, expected = frames[(offset * 7 + turn) % len(frames)]
                if decode_frame(frame) != expected:
                    wrong.append(frame)
                if max(len(wire._CONTACTS), len(wire._IDS)) >= bound + workers:
                    oversize.append(turn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and not oversize

    def test_a_record_running_past_the_datagram_is_the_parsers_to_refuse(self):
        record = contact_record(C, b"10.0.0.1:9000")
        whole = find_node_response(record)
        assert decode_frame(whole)[1].contacts == (ContactInfo(C, "10.0.0.1:9000"),)
        assert record in wire._CONTACTS
        for cut in range(len(whole) - len(record), len(whole)):
            with pytest.raises(CodecError, match="truncated"):
                decode_frame(whole[:cut])
        # A warm record followed by a byte of the next datagram's worth of junk.
        with pytest.raises(CodecError, match="trailing"):
            decode_frame(whole + b"\x00")

    def test_invalid_utf8_address_is_refused_every_time_and_never_interned(self):
        frame = find_node_response(contact_record(C, b"h:\xff"))
        for _ in range(2):
            with pytest.raises(CodecError, match="UTF-8"):
                decode_frame(frame)
        assert not wire._CONTACTS

    def test_a_length_spelled_in_two_bytes_goes_to_the_parser(self):
        """Not canonical, but the parser has always read it."""
        record = C.to_bytes() + b"\x83\x00" + b"h:2"
        for _ in range(2):
            assert decode_frame(find_node_response(record))[1].contacts == (ContactInfo(C, "h:2"),)
        assert not wire._CONTACTS
        with pytest.raises(CodecError, match="uvarint too long"):
            decode_frame(find_node_response(C.to_bytes() + b"\x80" * 10 + b"\x00"))

    def test_long_addresses_round_trip_outside_the_table(self):
        contact = ContactInfo(C, "h" * 200 + ":1")
        frame = encode_frame(1, FindNodeResponse(responder_id=B, contacts=(contact,)))
        for _ in range(2):
            assert decode_frame(frame)[1].contacts == (contact,)
        assert not wire._CONTACTS

    def test_warm_tables_decide_every_hostile_frame_like_the_parser(self, warm_tables):
        rng = random.Random(0xFA57)
        golden = [bytes.fromhex(expected) for _, _, expected in GOLDEN]
        hostile = [frame[:cut] for frame in golden for cut in range(len(frame))]
        hostile += [frame + b"\x00" for frame in golden]
        for _ in range(2_000):
            frame = bytearray(rng.choice(golden))
            for _ in range(rng.randint(1, 4)):
                frame[rng.randrange(len(frame))] = rng.randrange(256)
            hostile.append(bytes(frame))
        for frame in hostile:
            assert outcome(frame) == cold_outcome(frame), frame.hex()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), shared=st.integers(1, 4))
    def test_a_warm_decode_equals_the_cold_decode(self, seed, shared):
        """Generated conversations among a few peers, so that later frames
        hit records earlier ones interned."""
        rng = random.Random(seed)
        peers = [
            ContactInfo(NodeID.random(rng), f"10.0.0.{i}:{rng.randint(1024, 65535)}")
            for i in range(shared)
        ]
        clear_tables()
        for _ in range(12):
            message = random_message(rng)
            if isinstance(message, (FindNodeResponse, FindValueResponse)):
                message = dataclasses.replace(
                    message,
                    responder_id=rng.choice(peers).node_id,
                    contacts=tuple(rng.choices(peers, k=rng.randint(0, 5))),
                )
            frame = encode_frame(rng.randint(0, 2**53), message)
            warm = decode_frame(frame)
            assert warm == cold_outcome(frame)
            assert warm[1] == message and type(warm[1]) is type(message)
            assert encode_frame(warm[0], warm[1]) == frame


class TestFaults:
    def test_fault_frame_round_trips(self):
        frame = fault_frame(42, ValueError("bad key"))
        request_id, fault = decode_frame(frame)
        assert request_id == 42
        assert fault == RemoteFault(kind="ValueError", message="bad key")

    @pytest.mark.parametrize(
        "exc,expected_type",
        [
            (LikirAuthError("bad credential"), LikirAuthError),
            (ValueError("v"), ValueError),
            (TypeError("t"), TypeError),
            (RuntimeError("r"), RuntimeError),
            (OSError("unknown kinds degrade"), RuntimeError),
        ],
    )
    def test_raise_fault_rehydrates_local_type(self, exc, expected_type):
        _, fault = decode_frame(fault_frame(1, exc))
        with pytest.raises(expected_type):
            raise_fault(fault)
