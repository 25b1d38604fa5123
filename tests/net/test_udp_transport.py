"""The asyncio UDP transport, exercised over real loopback sockets.

Each test binds ephemeral ports on 127.0.0.1, so the suite runs anywhere a
loopback interface exists (CI included) and needs no fixed port numbers.
Timeout-path tests use a sub-100ms budget to stay fast.
"""

from __future__ import annotations

import threading

import pytest

from repro.dht.likir import LikirAuthError
from repro.dht.messages import (
    FindValueRequest,
    FindValueResponse,
    PingRequest,
    PingResponse,
    StoreRequest,
    StoreResponse,
)
from repro.dht.node_id import NodeID
from repro.net.base import DatagramTooLarge, RequestTimeout, TransportError
from repro.net.udp import UdpTransport, UdpTransportConfig
from repro.net.wire import encode_frame

A = NodeID.hash_of("client")
B = NodeID.hash_of("server")


def fast_config(**overrides) -> UdpTransportConfig:
    defaults = dict(timeout_ms=80.0, retries=1, backoff=1.5)
    defaults.update(overrides)
    return UdpTransportConfig(**defaults)


@pytest.fixture
def client():
    transport = UdpTransport(config=fast_config())
    yield transport
    transport.close()


@pytest.fixture
def server():
    transport = UdpTransport(config=fast_config())
    yield transport
    transport.close()


def ping(client: UdpTransport, destination: str) -> PingRequest:
    return client.send(
        client.local_address(),
        destination,
        PingRequest(sender_id=A, sender_address=client.local_address()),
    )


class TestRequestResponse:
    def test_round_trip_over_real_sockets(self, client, server):
        served = []

        def handler(sender_address, request):
            served.append((sender_address, request))
            return PingResponse(responder_id=B)

        server.register(server.local_address(), handler)
        response = ping(client, server.local_address())
        assert response == PingResponse(responder_id=B)
        assert served[0][0] == client.local_address()
        assert served[0][1].sender_id == A

    def test_per_type_stats_record_bytes_and_outcomes(self, client, server):
        server.register(
            server.local_address(), lambda s, r: PingResponse(responder_id=B)
        )
        ping(client, server.local_address())
        sent = client.stats.of("ping")
        assert (sent.sent, sent.succeeded, sent.failed) == (1, 1, 0)
        assert sent.bytes_sent > 0 and sent.bytes_received > 0

    def test_local_address_is_the_bound_socket(self, client):
        host, port = client.local_address().rsplit(":", 1)
        assert host == "127.0.0.1"
        assert 0 < int(port) < 65536

    def test_concurrent_requests_correlate_by_id(self, client, server):
        def handler(sender_address, request):
            # Echo the key back so a cross-wired reply is detectable.
            return FindValueResponse(
                responder_id=B, found=True, value=request.key.hex(), contacts=()
            )

        server.register(server.local_address(), handler)
        results: dict[int, str] = {}
        errors: list[Exception] = []

        def worker(i: int) -> None:
            key = NodeID.hash_of(f"key-{i}")
            try:
                response = client.send(
                    client.local_address(),
                    server.local_address(),
                    FindValueRequest(
                        sender_id=A,
                        sender_address=client.local_address(),
                        key=key,
                        count=20,
                    ),
                )
                results[i] = response.value == key.hex()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 16 and all(results.values())


class TestTimeoutsAndRetries:
    def test_unresponsive_peer_times_out(self, client):
        # A bound socket with no handler on the *other side* of a dead port:
        # nothing ever answers 127.0.0.1:1 (port 1 is unassigned loopback).
        with pytest.raises(RequestTimeout):
            ping(client, "127.0.0.1:1")
        stats = client.stats.of("ping")
        assert stats.failed == 1
        assert stats.retries == client.config.retries

    def test_retry_reaches_a_slow_first_response(self, server):
        """The first attempt's reply is dropped (handler answers only once
        asked twice) -- the retransmission carries the same request id, so
        the replay cache answers it."""
        calls = []

        def handler(sender_address, request):
            if not calls:
                calls.append("slow")
                import time

                time.sleep(0.12)  # outlive the 80ms first-attempt window
            return PingResponse(responder_id=B)

        server.register(server.local_address(), handler)
        client = UdpTransport(config=fast_config(timeout_ms=80.0, retries=2))
        try:
            response = ping(client, server.local_address())
            assert response == PingResponse(responder_id=B)
            assert client.stats.of("ping").retries >= 1
        finally:
            client.close()

    def test_closed_transport_refuses_sends(self, server):
        client = UdpTransport(config=fast_config())
        client.close()
        with pytest.raises(TransportError):
            ping(client, server.local_address())


class TestReplayCache:
    def test_duplicate_request_is_not_re_executed(self, server):
        """The cache is keyed (client endpoint, request id): the same frame
        from the same socket is answered from cache, handler untouched."""
        import socket

        executions = []

        def handler(sender_address, request):
            executions.append(request)
            return StoreResponse(responder_id=B)

        server.register(server.local_address(), handler)
        request = StoreRequest(
            sender_id=A,
            sender_address="127.0.0.1:1",
            key=NodeID.hash_of("k"),
            value={"n": 1},
        )
        frame = encode_frame(9, request)
        host, port = server.local_address().rsplit(":", 1)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(frame, (host, int(port)))
            first, _ = sock.recvfrom(65536)
            sock.sendto(frame, (host, int(port)))
            second, _ = sock.recvfrom(65536)
        assert len(executions) == 1
        assert server.stats.replays_served == 1
        # The replayed answer is byte-identical to the original response.
        assert first == second == encode_frame(9, StoreResponse(responder_id=B))

    def test_distinct_clients_do_not_share_cache_entries(self, server):
        """Two clients may coincidentally use the same request id: the cache
        must key on the source endpoint too, or one client gets the other's
        answer."""
        import socket

        executions = []

        def handler(sender_address, request):
            executions.append(request)
            return StoreResponse(responder_id=B)

        server.register(server.local_address(), handler)
        request = StoreRequest(
            sender_id=A,
            sender_address="127.0.0.1:1",
            key=NodeID.hash_of("k"),
            value={"n": 1},
        )
        frame = encode_frame(9, request)
        host, port = server.local_address().rsplit(":", 1)
        for _ in range(2):
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(2)
                sock.sendto(frame, (host, int(port)))
                sock.recvfrom(65536)
        assert len(executions) == 2
        assert server.stats.replays_served == 0


class TestFaults:
    def test_handler_exception_reraises_locally(self, client, server):
        def handler(sender_address, request):
            raise LikirAuthError("invalid credential from 'mallory'")

        server.register(server.local_address(), handler)
        with pytest.raises(LikirAuthError, match="mallory"):
            ping(client, server.local_address())
        # The RPC was delivered and answered: not a transport failure.
        assert client.stats.of("ping").succeeded == 1

    def test_unregistered_endpoint_answers_with_fault(self, client, server):
        # Socket is open but no node is registered: fail fast, no timeout.
        with pytest.raises(RuntimeError, match="no node"):
            ping(client, server.local_address())


class TestDatagramBounds:
    def test_oversize_request_raises_before_sending(self, client, server):
        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        big = {"entries": {f"tag-{i}": 1 for i in range(5_000)}}
        with pytest.raises(DatagramTooLarge):
            client.send(
                client.local_address(),
                server.local_address(),
                StoreRequest(
                    sender_id=A,
                    sender_address=client.local_address(),
                    key=NodeID.hash_of("k"),
                    value=big,
                ),
            )
        assert client.stats.of("store").failed == 1

    def test_oversize_response_comes_back_as_transport_error(self, client, server):
        def handler(sender_address, request):
            return FindValueResponse(
                responder_id=B,
                found=True,
                value={f"tag-{i}": 1 for i in range(5_000)},
                contacts=(),
            )

        server.register(server.local_address(), handler)
        with pytest.raises(DatagramTooLarge):
            client.send(
                client.local_address(),
                server.local_address(),
                FindValueRequest(
                    sender_id=A,
                    sender_address=client.local_address(),
                    key=NodeID.hash_of("k"),
                    count=20,
                ),
            )
        assert server.stats.oversize_dropped == 1
        assert client.stats.of("find_value").failed == 1


class TestMalformedInput:
    def test_garbage_datagrams_are_counted_and_dropped(self, client, server):
        import socket
        import time

        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        host, port = server.local_address().rsplit(":", 1)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for payload in (b"", b"\x00", b"not a frame", b"\xda\x01\xff\x00"):
                sock.sendto(payload, (host, int(port)))
        deadline = time.monotonic() + 2
        while server.stats.malformed_frames < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        # The empty datagram may be dropped by the OS; at least the three
        # non-empty ones must be counted.
        assert server.stats.malformed_frames >= 3
        # The endpoint survived: a well-formed RPC still works.
        assert ping(client, server.local_address()).alive


class TestRegistration:
    def test_register_rejects_foreign_address(self, server):
        with pytest.raises(ValueError):
            server.register("10.0.0.1:1234", lambda s, r: None)

    def test_is_registered_tracks_local_handler_only(self, server):
        address = server.local_address()
        assert not server.is_registered(address)
        server.register(address, lambda s, r: PingResponse(responder_id=B))
        assert server.is_registered(address)
        assert not server.is_registered("10.0.0.1:1")
        server.unregister(address)
        assert not server.is_registered(address)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UdpTransportConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            UdpTransportConfig(retries=-1)
        with pytest.raises(ValueError):
            UdpTransportConfig(backoff=0.5)
        with pytest.raises(ValueError):
            UdpTransportConfig(max_datagram=10)


class TestNodeFailurePolicyOverUdp:
    """Which transport errors tell a ``KademliaNode`` that a peer is dead."""

    @staticmethod
    def pair():
        from repro.dht.node import NodeConfig
        from repro.net.server import ServeNode

        config = NodeConfig(k=8, alpha=2, replicate=1, verify_credentials=False)
        a = ServeNode(node_config=config, transport_config=fast_config(max_datagram=512))
        b = ServeNode(node_config=config, transport_config=fast_config(max_datagram=512))
        b.bootstrap(None)
        a.bootstrap(b.address)
        return a, b

    def test_oversize_store_leaves_a_live_contact_in_the_table_unsuspected(self):
        a, b = self.pair()
        try:
            peer = a.probe(b.address)
            big = {"owner": "o", "type": "1", "entries": {f"tag-{i}": 1 for i in range(200)}}
            # The request never leaves a: its frame is over a's datagram bound.
            assert a.node.store_at([peer], NodeID.hash_of("big"), big) == 0
            assert a.transport.stats.of("store").failed == 1
            assert peer.node_id in a.node.routing_table
            assert not a.node.is_suspect(peer.node_id)
            assert a.node.export_suspects() == []
            # And b keeps answering a: nothing about the peer was wrong.
            assert a.node.ping(peer)
        finally:
            a.close()
            b.close()

    def test_oversize_response_is_an_answer_not_a_death(self):
        a, b = self.pair()
        try:
            peer = a.probe(b.address)
            key = NodeID.hash_of("fat")
            b.node.storage.put(key, {f"tag-{i}": 1 for i in range(200)})
            # b answers -- with a fault frame, its reply would not fit.
            assert a.node.query(peer, key, True, None) is None
            assert b.transport.stats.oversize_dropped == 1
            assert peer.node_id in a.node.routing_table
            assert a.node.export_suspects() == []
        finally:
            a.close()
            b.close()

    def test_silent_peer_is_struck_once_and_not_asked_again(self):
        a, b = self.pair()
        try:
            peer = a.probe(b.address)
            b.close()  # the endpoint is gone: datagrams vanish
            assert not a.node.ping(peer)  # spends the retry budget
            assert a.node.is_suspect(peer.node_id)
            assert peer.node_id not in a.node.routing_table
            failed = a.transport.stats.rpcs_failed
            # Hearsay: seed lookups with the dead contact; nothing is sent.
            from repro.dht.lookup import iterative_lookup

            outcome = iterative_lookup(a.node, peer.node_id, seeds=[peer], k=8, alpha=2)
            assert outcome.messages == 0 and outcome.closest == []
            assert a.transport.stats.rpcs_failed == failed
        finally:
            a.close()
            b.close()
