"""Real UDP RPC transport: one socket, one receiver thread, handler workers.

:class:`UdpTransport` puts one Kademlia node on one bound UDP socket.  The
node layer is synchronous (the iterative lookup blocks on each RPC) and so
is the transport -- no event loop, three kinds of thread:

* **the caller's thread** -- :meth:`UdpTransport.send` encodes the request as
  one wire frame (:mod:`repro.net.wire`), registers a waiter under the
  request id, ``sendto``s the frame and blocks on the waiter.  It retransmits
  on timeout with exponential backoff (same frame and request id, so a late
  reply to an earlier attempt still correlates) and raises
  :class:`~repro.net.base.RequestTimeout` when the budget is spent.
* **one receiver thread** (``udp-recv``) -- blocks in ``recvfrom``, decodes,
  and either wakes the waiter a response belongs to or consults the replay
  cache and sees the request answered.  The registered handler never runs
  here: it may block.  A dispatcher installed with
  :meth:`UdpTransport.serve_inline` does -- it has promised not to block and
  *declines* (returns ``None``) a request it could only serve by blocking,
  which then goes to the workers like every request of a transport without
  one.  Nothing that can wait on the network runs on the thread that pumps
  the replies, and a :meth:`~UdpTransport.send` from it is refused at once.
* **a fixed pool of handler workers** (``udp-work-N``) -- run the registered
  handler, encode the response, enforce the datagram bound, fill the replay
  cache and ``sendto`` the reply (:meth:`UdpTransport._answer`, the same
  function the receiver answers through).  A handler may issue blocking RPCs
  through this very transport (ping-before-evict does): that parks one
  worker, not the endpoint, because the receiver keeps pumping replies.

Retransmission makes every RPC at-least-once, but APPEND is not idempotent
(each delivery increments counters).  The server therefore keeps a bounded
**replay cache** of encoded responses keyed ``(client address, request
id)``: a duplicate request is answered from the cache without re-executing
the handler, and a duplicate that arrives while the original is still
executing is simply dropped (the client will retry again).  Request ids
start at a random 32-bit origin per transport, so a client restarted on the
same ``host:port`` does not collide with its previous incarnation's entries.

Handler exceptions travel back as fault frames and re-raise client-side
with the matching local type (:func:`repro.net.wire.raise_fault`), mirroring
the simulator where handler exceptions propagate to the caller.  Frames
over ``max_datagram`` bytes are refused: outbound requests raise
:class:`~repro.net.base.DatagramTooLarge` immediately; oversize responses
are replaced by a fault frame carrying the same error, so the client fails
fast instead of timing out.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any

from repro.core.codec import CodecError
from repro.dht.messages import RPCRequest
from repro.net.base import (
    DatagramTooLarge,
    RequestTimeout,
    RPCHandler,
    Transport,
    TransportError,
    TransportStats,
    WallClock,
    rpc_name,
)
from repro.net.wire import RemoteFault, decode_frame, encode_frame, fault_frame, raise_fault

__all__ = ["UdpTransportConfig", "UdpTransport"]


@dataclass(frozen=True, slots=True)
class UdpTransportConfig:
    """Tunables of the UDP RPC layer.

    ``timeout_ms`` is the wait for the *first* attempt; each of the
    ``retries`` retransmissions multiplies it by ``backoff``.  The default
    budget is therefore 2s + 4s + 8s = 14s per RPC before
    :class:`~repro.net.base.RequestTimeout`.  ``max_datagram`` bounds every
    frame (the paper's UDP payload bound motivates the index-side top-n
    filtering; here it is enforced, not just modelled).
    """

    timeout_ms: float = 2_000.0
    retries: int = 2
    backoff: float = 2.0
    max_datagram: int = 8_192
    replay_cache_size: int = 1_024

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_datagram < 512:
            raise ValueError("max_datagram must be >= 512")
        if self.replay_cache_size < 1:
            raise ValueError("replay_cache_size must be >= 1")


def _parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise TransportError(f"not a host:port address: {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise TransportError(f"bad port in address {address!r}") from None


#: Replay-cache sentinel: the original execution has not finished yet.
_IN_FLIGHT = object()

#: Handler worker threads per endpoint (``ThreadPoolExecutor``'s default
#: size): a handler parked in a nested RPC stalls one of them, not the node.
_WORKERS = min(32, (os.cpu_count() or 1) + 4)


class UdpTransport(Transport):
    """One node's UDP endpoint: socket, receiver thread and handler workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: UdpTransportConfig | None = None,
    ) -> None:
        self.config = config or UdpTransportConfig()
        self.clock = WallClock()
        self.stats = TransportStats()
        self._handler: RPCHandler | None = None
        self._handler_address: str | None = None
        #: See :meth:`serve_inline`; lives and dies with ``_handler``.
        self._inline: RPCHandler | None = None
        #: request id -> the queue its blocked :meth:`send` waits on.  Written
        #: by caller threads, read by the receiver, drained by :meth:`close`.
        self._pending: dict[int, SimpleQueue] = {}
        #: Touched by the receiver (lookup, ``_IN_FLIGHT``) and the workers
        #: (fill, evict), hence the lock.
        self._replay: OrderedDict[tuple[Any, int], Any] = OrderedDict()
        self._replay_lock = threading.Lock()
        # Unique and increasing within this transport; the random origin
        # keeps a restarted client's ids clear of the replies a server still
        # caches for its previous incarnation on the same host:port.
        self._ids = itertools.count(int.from_bytes(os.urandom(4), "big") + 1)
        self._jobs: SimpleQueue = SimpleQueue()
        self._closed = False

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError:
            self._sock.close()
            raise
        sock_host, sock_port = self._sock.getsockname()[:2]
        self._address = f"{sock_host}:{sock_port}"
        # No thread exists before the bind has succeeded.
        self._threads = [threading.Thread(target=self._receive, name="udp-recv", daemon=True)]
        self._threads += [
            threading.Thread(target=self._work, name=f"udp-work-{index}", daemon=True)
            for index in range(_WORKERS)
        ]
        for thread in self._threads:
            thread.start()
        self._receiver_ident = self._threads[0].ident

    # -- Transport contract -------------------------------------------------- #

    def local_address(self) -> str:
        return self._address

    def register(self, address: str, handler: RPCHandler) -> None:
        if address != self._address:
            raise ValueError(
                f"a UDP transport hosts exactly its own endpoint "
                f"({self._address!r}), cannot register {address!r}"
            )
        if self._handler is not None:
            raise ValueError(f"address {address!r} already registered")
        self._handler = handler
        self._handler_address = address

    def serve_inline(self, dispatcher: RPCHandler) -> None:
        """Let *dispatcher* answer requests on the receiver thread.

        *dispatcher* must serve a request exactly as the registered handler
        would, except that it never blocks: where the handler would, it
        returns ``None`` having changed nothing, and the request is queued
        for the handler on a worker.
        """
        if self._handler is None:
            raise ValueError("serve_inline needs a registered handler to fall back on")
        self._inline = dispatcher

    def unregister(self, address: str) -> None:
        if address == self._handler_address:
            self._handler = None
            self._handler_address = None
            self._inline = None

    def is_registered(self, address: str) -> bool:
        """Only the locally hosted address is knowable; remote liveness is
        what :meth:`send` discovers."""
        return address == self._handler_address and self._handler is not None

    def send(self, sender: str, destination: str, request: Any) -> Any:
        if threading.get_ident() == self._receiver_ident:
            # Not a TransportError: the peer is not dead, the caller is wrong.
            # Waiting here would stall the endpoint for a whole retry budget
            # with no reply deliverable, its own included.
            raise RuntimeError("blocking send on the udp-recv thread")
        if self._closed:
            raise TransportError("transport is closed")
        per_type = self.stats.of(rpc_name(request))
        per_type.sent += 1
        try:
            addr = _parse_address(destination)
            request_id = next(self._ids)
            frame = encode_frame(request_id, request)
            if len(frame) > self.config.max_datagram:
                raise DatagramTooLarge(
                    f"{rpc_name(request)} request is {len(frame)} bytes "
                    f"(max {self.config.max_datagram})"
                )
            message, nbytes = self._request(addr, frame, request_id, per_type)
        except TransportError:
            per_type.failed += 1
            raise
        per_type.bytes_received += nbytes
        if isinstance(message, RemoteFault):
            # The peer answered: the RPC reached a live node and failed in
            # its handler.  An application error (bad credential, bad key)
            # re-raises its local type like the simulator propagating a
            # handler exception and still counts as a delivered RPC; a
            # transport-class fault (oversize response) counts failed.
            try:
                raise_fault(message)
            except TransportError:
                per_type.failed += 1
                raise
            except Exception:
                per_type.succeeded += 1
                raise
        per_type.succeeded += 1
        return message

    def close(self) -> None:
        """Fail every blocked :meth:`send`, stop the threads, free the port."""
        if self._closed:
            return
        self._closed = True
        self._handler = None
        self._handler_address = None
        self._inline = None
        # A send that registers after this snapshot sees ``_closed`` itself.
        for waiter in list(self._pending.values()):
            waiter.put(None)
        for _ in range(_WORKERS):
            self._jobs.put(None)
        try:
            # Closing the descriptor does not wake a thread blocked in
            # recvfrom; shutting the socket down does (it reads b"").
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # ENOTCONN on an unconnected socket; the wake-up still happens
        for thread in self._threads:
            thread.join(timeout=5)
        self._sock.close()

    def __enter__(self) -> "UdpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"UdpTransport({self._address})"

    # -- client side (caller's thread) ---------------------------------------- #

    def _request(
        self, addr: tuple[str, int], frame: bytes, request_id: int, per_type
    ) -> tuple[Any, int]:
        config = self.config
        timeout = config.timeout_ms / 1_000.0
        waiter: SimpleQueue = SimpleQueue()
        self._pending[request_id] = waiter
        try:
            if self._closed:  # close() may have drained _pending already
                raise RequestTimeout("transport closed")
            for attempt in range(config.retries + 1):
                if attempt:
                    per_type.retries += 1
                    timeout *= config.backoff
                self._sendto(frame, addr)
                per_type.bytes_sent += len(frame)
                try:
                    reply = waiter.get(timeout=timeout)
                except Empty:
                    continue
                if reply is None:
                    raise RequestTimeout("transport closed")
                return reply
            raise RequestTimeout(
                f"no response from {addr[0]}:{addr[1]} after "
                f"{config.retries + 1} attempt(s)"
            )
        finally:
            del self._pending[request_id]

    def _sendto(self, frame: bytes, addr) -> None:
        """A datagram the OS refuses is a datagram lost: the client's
        retransmission (and the replay cache) already cover that."""
        try:
            self._sock.sendto(frame, addr)
        except OSError:
            pass

    # -- inbound (receiver thread) -------------------------------------------- #

    def _receive(self) -> None:
        recvfrom = self._sock.recvfrom
        while not self._closed:
            try:
                data, addr = recvfrom(65_535)  # the largest UDP payload
            except OSError:
                continue
            if self._closed:
                return  # the empty read close() woke us with
            try:
                self._on_datagram(data, addr)
            except Exception:
                # The thread boundary: nothing a peer sends may stop the
                # endpoint from receiving, so the datagram is counted bad.
                self.stats.malformed_frames += 1

    def _on_datagram(self, data: bytes, addr) -> None:
        try:
            request_id, message = decode_frame(data)
        except CodecError:
            self.stats.malformed_frames += 1
            return
        if isinstance(message, RPCRequest):
            self._serve(request_id, message, addr)
            return
        waiter = self._pending.get(request_id)
        if waiter is not None:
            waiter.put((message, len(data)))
        # else: reply to a request that already timed out -- drop it.

    def _serve(self, request_id: int, message: RPCRequest, addr) -> None:
        handler = self._handler
        if handler is None:
            # Node left but the socket is still draining: answer with a
            # fault so the caller fails fast instead of timing out.
            self._sendto(fault_frame(request_id, RuntimeError("no node on this endpoint")), addr)
            return
        key = (addr, request_id)
        with self._replay_lock:
            cached = self._replay.get(key)
            if cached is None:
                self._replay[key] = _IN_FLIGHT
            elif cached is not _IN_FLIGHT:
                self._replay.move_to_end(key)
        if cached is None:
            # The handler runs on the workers, never here: serving a STORE
            # triggers routing-table upkeep that may issue blocking pings
            # through this very transport, which needs this thread free to
            # pump the replies.  The inline dispatcher declines those.
            inline = self._inline
            if inline is None or not self._answer(
                inline, request_id, message, addr, may_decline=True
            ):
                self._jobs.put((handler, request_id, message, addr))
        elif cached is not _IN_FLIGHT:
            self.stats.replays_served += 1
            self._sendto(cached, addr)
        # else: original execution still running; the client will retry.

    # -- answering (handler workers; the receiver for the inline dispatcher) --- #

    def _work(self) -> None:
        while (job := self._jobs.get()) is not None and not self._closed:
            self._answer(*job)

    def _answer(
        self, handler: RPCHandler, request_id: int, message: RPCRequest, addr,
        may_decline: bool = False,
    ) -> bool:
        """Run *handler* on a request marked ``_IN_FLIGHT`` and reply.

        False, with nothing cached or sent, when a handler that
        *may_decline* returned ``None``.
        """
        try:
            response = handler(f"{addr[0]}:{addr[1]}", message)
            if response is None and may_decline:
                return False
            frame = encode_frame(request_id, response)
            if len(frame) > self.config.max_datagram:
                self.stats.oversize_dropped += 1
                frame = fault_frame(
                    request_id,
                    DatagramTooLarge(
                        f"{rpc_name(message)} response is {len(frame)} bytes "
                        f"(max {self.config.max_datagram})"
                    ),
                )
        except Exception as exc:
            frame = fault_frame(request_id, exc)
        with self._replay_lock:
            self._replay[(addr, request_id)] = frame
            while len(self._replay) > self.config.replay_cache_size:
                self._replay.popitem(last=False)
        self._sendto(frame, addr)
        return True
