"""The threaded UDP transport, exercised over real loopback sockets.

Each test binds ephemeral ports on 127.0.0.1, so the suite runs anywhere a
loopback interface exists (CI included) and needs no fixed port numbers.
Timeout-path tests use a sub-100ms budget to stay fast.  Every wait on a
thread or an event is bounded, and ``pyproject.toml`` turns an exception
that kills a transport thread into a test failure instead of a hang.
"""

from __future__ import annotations

import socket
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.udp as udp_module
from repro.dht.likir import LikirAuthError
from repro.dht.messages import (
    AppendRequest,
    AppendResponse,
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
from repro.net.wire import decode_frame, encode_frame

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


def find_value(client: UdpTransport, destination: str, key: NodeID) -> FindValueResponse:
    return client.send(
        client.local_address(),
        destination,
        FindValueRequest(
            sender_id=A, sender_address=client.local_address(), key=key, count=20
        ),
    )


def sockaddr(transport: UdpTransport) -> tuple[str, int]:
    host, port = transport.local_address().rsplit(":", 1)
    return host, int(port)


def append_request(key: str) -> AppendRequest:
    return AppendRequest(
        sender_id=A,
        sender_address="127.0.0.1:1",
        key=NodeID.hash_of(key),
        owner="o",
        block_type="1",
        increments={"tag": 1},
    )


def run_threads(target, count: int, timeout_s: float = 10.0) -> None:
    """Run ``target(i)`` on *count* threads; every join is bounded."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
    assert not any(thread.is_alive() for thread in threads)


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
                response = find_value(client, server.local_address(), key)
                results[i] = response.value == key.hex()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        run_threads(worker, 16)
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


    def test_close_fails_a_blocked_send_at_once(self):
        """Not after the retry budget (here 2 + 4 + 8 s)."""
        client = UdpTransport()
        outcome: list = []
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            host, port = silent.getsockname()

            def blocked() -> None:
                try:
                    ping(client, f"{host}:{port}")
                except TransportError as exc:
                    outcome.append((exc, time.monotonic()))

            sender = threading.Thread(target=blocked)
            sender.start()
            silent.settimeout(2)
            silent.recvfrom(65536)  # the request is out: send() is waiting
            closed_at = time.monotonic()
            client.close()
            sender.join(5)
        assert not sender.is_alive()
        ((exc, raised_at),) = outcome
        assert isinstance(exc, RequestTimeout) and "transport closed" in str(exc)
        assert raised_at - closed_at < 0.2
        assert client.stats.of("ping").failed == 1

    def test_refused_sendto_counts_as_a_lost_datagram(self, client, server):
        """The OS refusing one datagram is loss: the retransmission gets through."""

        class RefusesOnce:
            def __init__(self, sock):
                self._sock = sock
                self.refused = 0

            def sendto(self, frame, addr):
                if not self.refused:
                    self.refused += 1
                    raise OSError("network is unreachable")
                return self._sock.sendto(frame, addr)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        client._sock = flaky = RefusesOnce(client._sock)
        assert ping(client, server.local_address()).alive
        assert flaky.refused == 1
        stats = client.stats.of("ping")
        assert (stats.retries, stats.succeeded, stats.failed) == (1, 1, 0)


class TestLifecycle:
    def test_close_frees_the_port_and_every_thread(self):
        baseline = set(threading.enumerate())
        transport = UdpTransport()
        assert set(threading.enumerate()) > baseline
        transport.close()
        assert set(threading.enumerate()) == baseline
        # The same host:port binds again immediately -- as a plain socket and
        # as the next incarnation of the endpoint.
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(sockaddr(transport))
        host, port = sockaddr(transport)
        with UdpTransport(host, port) as again:
            assert again.local_address() == transport.local_address()
        assert set(threading.enumerate()) == baseline

    def test_every_transport_thread_is_named(self, client):
        """So ``--durations`` / faulthandler output says whose thread hangs."""
        names = sorted(t.name for t in threading.enumerate() if t.name.startswith("udp-"))
        assert names == sorted(
            ["udp-recv", *(f"udp-work-{i}" for i in range(udp_module._WORKERS))]
        )

    def test_taken_port_raises_oserror_and_starts_no_thread(self, server):
        baseline = set(threading.enumerate())
        host, port = sockaddr(server)
        with pytest.raises(OSError):
            UdpTransport(host, port)
        assert set(threading.enumerate()) == baseline


class TestReplayCache:
    def test_duplicate_request_is_not_re_executed(self, server):
        """The cache is keyed (client endpoint, request id): the same frame
        from the same socket is answered from cache, handler untouched."""
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


    def test_duplicate_of_an_executing_request_is_dropped(self, server):
        started, release = threading.Event(), threading.Event()
        executions = []

        def handler(sender_address, request):
            executions.append(request.key)
            if request.key == NodeID.hash_of("slow"):
                started.set()
                assert release.wait(5)
            return AppendResponse(responder_id=B, block_size=len(executions))

        server.register(server.local_address(), handler)
        slow, fence = encode_frame(9, append_request("slow")), encode_frame(10, append_request("f"))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(slow, sockaddr(server))
            assert started.wait(2)
            sock.sendto(slow, sockaddr(server))  # the original is still executing
            # Datagrams are taken in order: once the fence is answered the
            # duplicate has been seen -- and nothing came back for it.
            sock.sendto(fence, sockaddr(server))
            assert decode_frame(sock.recvfrom(65536)[0])[0] == 10
            release.set()
            assert decode_frame(sock.recvfrom(65536)[0])[0] == 9
            sock.settimeout(0.05)
            with pytest.raises(TimeoutError):
                sock.recvfrom(65536)
        assert executions.count(NodeID.hash_of("slow")) == 1
        assert server.stats.replays_served == 0

    def test_restarted_client_is_not_answered_from_its_previous_life(self, server):
        """Two successive transports on one host:port (``ServeNode``'s
        deterministic restart) must not share replay-cache keys: the second
        one's first request is executed, not answered with the first one's
        cached reply."""
        executed = []

        def handler(sender_address, request):
            executed.append(type(request).__name__)
            if isinstance(request, PingRequest):
                return PingResponse(responder_id=B)
            return AppendResponse(responder_id=B, block_size=1)

        server.register(server.local_address(), handler)
        with UdpTransport(config=fast_config()) as first:
            host, port = sockaddr(first)
            assert ping(first, server.local_address()).alive
        with UdpTransport(host, port, config=fast_config()) as second:
            response = second.send(
                second.local_address(), server.local_address(), append_request("k")
            )
        assert response == AppendResponse(responder_id=B, block_size=1)
        assert executed == ["PingRequest", "AppendRequest"]
        assert server.stats.replays_served == 0

    def test_request_ids_increase_from_a_random_32_bit_origin(self):
        def ids_on_the_wire(silent, sends: int) -> list[int]:
            with UdpTransport(config=fast_config(timeout_ms=10.0, retries=0)) as transport:
                for _ in range(sends):
                    with pytest.raises(RequestTimeout):
                        ping(transport, "%s:%d" % silent.getsockname())
            return [decode_frame(silent.recvfrom(65536)[0])[0] for _ in range(sends)]

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            silent.settimeout(2)
            first, second = ids_on_the_wire(silent, 3), ids_on_the_wire(silent, 1)
        assert first == [first[0], first[0] + 1, first[0] + 2]
        assert 0 < first[0] <= 2**32 and 0 < second[0] <= 2**32
        assert second[0] != 1 and first[0] != second[0]  # one chance in 2**32 each

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), count=st.integers(1, 6))
    def test_any_schedule_of_copies_executes_each_append_once(self, data, count):
        """Duplicated, re-ordered and late copies of N APPEND frames (cache
        larger than N): each ``(addr, id)`` runs the handler exactly once and
        every reply to one id is byte-identical."""
        # One step = (which frame, whether to wait for its reply first --
        # a *late* copy, which the cache must then answer).
        steps = data.draw(
            st.lists(st.tuples(st.integers(0, count - 1), st.booleans()), max_size=3 * count)
        )
        steps += [(index, False) for index in range(count)]  # every frame at least once
        steps = data.draw(st.permutations(steps))
        frames = [encode_frame(100 + i, append_request(f"k-{i}")) for i in range(count)]
        executions: list = []
        lock = threading.Lock()

        def handler(sender_address, request):
            with lock:  # the reply depends on the order of execution
                executions.append(request.key)
                return AppendResponse(responder_id=B, block_size=len(executions))

        replies: dict[int, list[bytes]] = {}

        def drain(sock, until, budget_s: float = 5.0) -> None:
            deadline = time.monotonic() + budget_s
            while not until() and time.monotonic() < deadline:
                try:
                    frame = sock.recvfrom(65536)[0]
                except TimeoutError:
                    continue
                replies.setdefault(decode_frame(frame)[0] - 100, []).append(frame)

        late = 0
        with UdpTransport(config=fast_config(replay_cache_size=count + 1)) as server, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            server.register(server.local_address(), handler)
            sock.settimeout(0.01)
            sent: set[int] = set()
            for index, wait_first in steps:
                if wait_first and index in sent:
                    drain(sock, lambda: index in replies)
                    late += 1
                sock.sendto(frames[index], sockaddr(server))
                sent.add(index)
            # A late copy is one whose first reply we hold: the cache had it.
            drain(
                sock,
                lambda: len(replies) == count and server.stats.replays_served >= late,
            )
            drain(sock, lambda: False, budget_s=0.03)  # answers to trailing copies
            replays = server.stats.replays_served
        assert sorted(executions) == sorted(NodeID.hash_of(f"k-{i}") for i in range(count))
        assert sorted(replies) == list(range(count))
        assert all(len(set(copies)) == 1 for copies in replies.values())
        assert replays >= late


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


    def test_exception_escaping_the_decoder_does_not_kill_the_receiver(
        self, client, server, monkeypatch
    ):
        def decode(data):
            if data == b"boom":
                raise ValueError("not a CodecError")
            return decode_frame(data)

        monkeypatch.setattr(udp_module, "decode_frame", decode)
        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"boom", sockaddr(server))
        deadline = time.monotonic() + 2
        while not server.stats.malformed_frames and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stats.malformed_frames == 1
        assert ping(client, server.local_address()).alive


class TestThreadingModel:
    """Handlers run on the workers; replies are pumped by the receiver."""

    @staticmethod
    def patient() -> UdpTransport:
        # One attempt, long enough that no test below sees a retransmission.
        return UdpTransport(config=UdpTransportConfig(timeout_ms=5_000.0, retries=0))

    def test_nested_rpc_completes_while_every_other_worker_is_parked(self):
        workers = udp_module._WORKERS
        parked = threading.Semaphore(0)
        release = threading.Event()
        with self.patient() as client, self.patient() as server, self.patient() as echo:
            echo.register(echo.local_address(), lambda s, r: PingResponse(responder_id=A))

            def handler(sender_address, request):
                if isinstance(request, PingRequest):
                    parked.release()
                    assert release.wait(5)
                    return PingResponse(responder_id=B)
                # A handler issuing a blocking RPC through its own transport.
                nested = ping(server, echo.local_address())
                return FindValueResponse(
                    responder_id=B, found=True, value=nested.responder_id.hex(), contacts=()
                )

            server.register(server.local_address(), handler)
            answered = []

            def slow_caller() -> None:
                answered.append(ping(client, server.local_address()))

            callers = [threading.Thread(target=slow_caller) for _ in range(workers - 1)]
            for caller in callers:
                caller.start()
            for _ in callers:
                assert parked.acquire(timeout=5)
            try:
                response = find_value(client, server.local_address(), NodeID.hash_of("k"))
                assert response.value == A.hex()
                assert not answered  # the others are still parked
            finally:
                release.set()
                for caller in callers:
                    caller.join(5)
            assert len(answered) == workers - 1

    def test_twice_the_pool_of_slow_handlers_is_all_answered(self):
        count = 2 * udp_module._WORKERS
        running, peak = [], []
        lock = threading.Lock()

        def handler(sender_address, request):
            with lock:
                running.append(request.key)
                peak.append(len(running))
            time.sleep(0.05)
            with lock:
                running.remove(request.key)
            return FindValueResponse(
                responder_id=B, found=True, value=request.key.hex(), contacts=()
            )

        results: dict[int, bool] = {}
        with self.patient() as client, self.patient() as server:
            server.register(server.local_address(), handler)

            def caller(i: int) -> None:
                key = NodeID.hash_of(f"key-{i}")
                results[i] = find_value(client, server.local_address(), key).value == key.hex()

            run_threads(caller, count)
        assert len(results) == count and all(results.values())
        assert 1 < max(peak) <= udp_module._WORKERS  # in parallel, within the pool


def served_on(node) -> list:
    """Start listing ``(request type, thread name)`` of every RPC *node* serves."""
    served = []

    def hook(request, response):
        served.append((type(request).__name__, threading.current_thread().name))
        return response

    node.node.rpc_hook = hook
    return served


class TestInlineService:
    """A dispatcher installed with ``serve_inline`` answers on ``udp-recv``
    through the same ``_answer`` the workers use, and hands what it declines
    to them; plain ``register`` keeps every handler off the receiver."""

    def test_a_registered_handler_alone_never_runs_on_the_receiver(self, client, server):
        threads = []

        def handler(sender_address, request):
            threads.append(threading.current_thread().name)
            return PingResponse(responder_id=B)

        server.register(server.local_address(), handler)
        for _ in range(3):
            assert ping(client, server.local_address()).alive
        assert len(threads) == 3 and all(name.startswith("udp-work-") for name in threads)

    def test_needs_a_handler_and_goes_with_it(self, client, server):
        with pytest.raises(ValueError, match="registered handler"):
            server.serve_inline(lambda s, r: None)
        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        server.serve_inline(lambda s, r: PingResponse(responder_id=A))
        assert ping(client, server.local_address()).responder_id == A
        server.unregister(server.local_address())
        with pytest.raises(RuntimeError, match="no node"):
            ping(client, server.local_address())
        server.register(server.local_address(), lambda s, r: PingResponse(responder_id=B))
        assert ping(client, server.local_address()).responder_id == B  # no stale dispatcher

    def test_answers_on_the_receiver_and_hands_what_it_declines_to_a_worker(
        self, client, server
    ):
        served = []

        def handler(sender_address, request):
            served.append(("handler", threading.current_thread().name))
            return FindValueResponse(responder_id=B, found=True, value="worker", contacts=())

        def inline(sender_address, request):
            served.append(("inline", threading.current_thread().name))
            if isinstance(request, PingRequest):
                return PingResponse(responder_id=B)
            return None

        server.register(server.local_address(), handler)
        server.serve_inline(inline)
        assert ping(client, server.local_address()).alive
        assert served == [("inline", "udp-recv")]
        assert find_value(client, server.local_address(), NodeID.hash_of("k")).value == "worker"
        assert [who for who, _ in served] == ["inline", "inline", "handler"]
        assert served[2][1].startswith("udp-work-")

    def test_faults_and_the_datagram_bound_hold_on_the_receiver(self, client, server):
        def inline(sender_address, request):
            if isinstance(request, PingRequest):
                raise LikirAuthError("invalid credential from 'mallory'")
            return FindValueResponse(
                responder_id=B, found=True, value={f"t-{i}": 1 for i in range(5_000)}, contacts=()
            )

        server.register(server.local_address(), lambda s, r: None)
        server.serve_inline(inline)
        with pytest.raises(LikirAuthError, match="mallory"):
            ping(client, server.local_address())
        with pytest.raises(DatagramTooLarge):
            find_value(client, server.local_address(), NodeID.hash_of("k"))
        assert server.stats.oversize_dropped == 1

    def test_a_blocking_send_from_the_receiver_fails_at_once(self, server):
        """A programming error, not a dead peer: no ``TransportError``, no
        wait, and the endpoint lives to answer the next request."""
        raised = []

        def inline(sender_address, request):
            if isinstance(request, PingRequest):
                return PingResponse(responder_id=B)
            try:
                return ping(server, "127.0.0.1:1")  # nobody there: 5 s if it waited
            except Exception as exc:
                raised.append(exc)
                raise

        server.register(server.local_address(), lambda s, r: None)
        server.serve_inline(inline)
        with TestThreadingModel.patient() as caller:
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="udp-recv"):
                find_value(caller, server.local_address(), NodeID.hash_of("k"))
            assert time.monotonic() - started < 0.2
            assert ping(caller, server.local_address()).alive
        (exc,) = raised
        assert not isinstance(exc, TransportError)
        assert server.stats.rpcs_sent == 0  # refused before any bookkeeping

    def test_duplicate_of_an_inline_served_append_is_answered_from_the_cache(self):
        from repro.net.server import ServeNode

        with ServeNode(transport_config=fast_config()) as node, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            node.bootstrap(None)
            served = served_on(node)
            request = append_request("k")
            frame = encode_frame(9, request)
            sock.settimeout(2)
            sock.sendto(frame, sockaddr(node.transport))
            first, _ = sock.recvfrom(65536)
            sock.sendto(frame, sockaddr(node.transport))
            second, _ = sock.recvfrom(65536)
            assert served == [("AppendRequest", "udp-recv")]  # ran once, on the receiver
            assert node.transport.stats.replays_served == 1
            assert first == second
            assert decode_frame(first)[1] == AppendResponse(responder_id=node.node_id, block_size=1)
            assert node.node.storage.get(request.key)["entries"] == {"tag": 1}
            assert node.node.rpcs_served["append"] == 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), count=st.integers(1, 6))
    def test_any_schedule_of_copies_executes_once_with_a_dispatcher_installed(self, data, count):
        """PR 17's property, body unchanged, against a transport whose every
        third request is declined to the workers and the rest served inline."""
        plain_register = UdpTransport.register

        def register_with_dispatcher(transport, address, handler):
            plain_register(transport, address, handler)
            turn = iter(range(10**9))
            transport.serve_inline(
                lambda sender, request: None if next(turn) % 3 == 0 else handler(sender, request)
            )

        the_property = TestReplayCache.test_any_schedule_of_copies_executes_each_append_once
        with mock.patch.object(UdpTransport, "register", register_with_dispatcher):
            the_property.hypothesis.inner_test(self, data, count)


class TestEvictProbeOverUdp:
    """The one request a served node cannot answer without blocking: an
    unknown sender meeting a full bucket (``k=1``: one resident per bucket)."""

    @staticmethod
    def nodes(*values: int, **transport):
        from repro.dht.node import NodeConfig
        from repro.net.server import ServeNode

        config = NodeConfig(k=1, alpha=1, replicate=1, verify_credentials=False)
        return [
            ServeNode(
                node_id=NodeID(value),
                node_config=config,
                transport_config=UdpTransportConfig(**transport),
            )
            for value in values
        ]

    @staticmethod
    def find_node(asker, server):
        from repro.dht.routing_table import Contact

        contact = Contact(server.node_id, server.address)
        return asker.node.query(contact, NodeID.hash_of("target"), False, None)

    def test_declined_inline_served_by_a_worker_that_pings_the_resident(self):
        # resident 0b100 and stranger 0b101 share bucket 2 of server 0.
        server, resident, stranger = nodes = self.nodes(0, 0b100, 0b101, timeout_ms=2_000.0)
        try:
            served = served_on(server)
            assert self.find_node(resident, server) is not None
            assert served == [("FindNodeRequest", "udp-recv")]
            assert self.find_node(stranger, server) is not None
            (_, (name, thread)) = served
            assert name == "FindNodeRequest" and thread.startswith("udp-work-")
            assert resident.node.rpcs_served["ping"] == 1  # probed, alive: it stays
            assert resident.node_id in server.node.routing_table
            assert stranger.node_id not in server.node.routing_table
            assert server.node.rpcs_served["find_node"] == 2
        finally:
            for node in nodes:
                node.close()

    def test_dead_resident_is_replaced_while_the_receiver_keeps_pumping(self):
        (server,) = self.nodes(0, timeout_ms=400.0, retries=0)  # the probe's budget
        resident, stranger, bystander = self.nodes(0b100, 0b101, 0b1000000, timeout_ms=5_000.0)
        try:
            assert self.find_node(resident, server) is not None
            resident.close()
            outcome = []
            asker = threading.Thread(
                target=lambda: outcome.append(self.find_node(stranger, server))
            )
            asker.start()
            deadline = time.monotonic() + 2
            while not server.transport.stats.of("ping").sent and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.transport.stats.of("ping").sent == 1  # a worker is in the probe
            # Declined, not yet served: counted only when the worker gets there.
            assert server.node.rpcs_served["find_node"] == 1
            assert bystander.probe(server.address).node_id == server.node_id
            assert asker.is_alive() and not outcome  # answered inside the probe's timeout
            asker.join(5)
            assert outcome and outcome[0] is not None
            assert server.node.rpcs_served["find_node"] == 2
            assert stranger.node_id in server.node.routing_table
            assert resident.node_id not in server.node.routing_table
            assert server.node.is_suspect(resident.node_id)
        finally:
            for node in (server, stranger, bystander):
                node.close()


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
