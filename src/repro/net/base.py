"""The pluggable transport seam of the overlay.

Every Kademlia node talks to its peers through a :class:`Transport`: an
object that can register a local RPC handler under an address, deliver a
request to a remote address and hand back the response, and report failures
as :class:`TransportError` subclasses.  Two implementations exist:

* :class:`~repro.simulation.network.SimulatedNetwork` -- the in-process
  network with virtual-clock latency and loss, shared by every node of a
  simulated overlay (the default for every experiment and benchmark);
* :class:`~repro.net.udp.UdpTransport` -- a real UDP RPC layer with
  request-id correlation, timeout/retry with exponential backoff and
  max-datagram enforcement, used by ``dharma serve`` to run one node per OS
  process.

The node layer is synchronous (the iterative lookup issues one RPC at a time
and blocks on the reply), so :meth:`Transport.send` is a blocking call on
both implementations; the UDP transport sends from the caller's thread and
blocks it until its receiver thread hands over the reply.

Every transport keeps :class:`TransportStats`: per-message-type counters of
RPCs sent, succeeded and failed (plus retries and wire bytes where the
transport has real frames), so operators can see *which* RPC type is burning
the network regardless of which transport is plugged in.  The transport is
the only place traffic is counted: bytes on the wire are the UDP transport's
``bytes_sent`` / ``bytes_received`` and the simulator's
``NetworkStats.bytes_transferred``.

Invariants
----------

* **total failure taxonomy** -- :meth:`Transport.send` either returns the
  peer's response or raises a :class:`TransportError`; no other exception
  escapes the seam, so the node layer's failure policy (which subclasses
  evict a contact, which also make it a suspect, which do neither) holds
  over any transport.
* **clock duck-type** -- every transport exposes ``clock.now`` in
  milliseconds (virtual for the simulator, wall for UDP), which is the only
  time source the node, engine and storage layers consult.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from typing import Any

__all__ = [
    "TransportError",
    "RequestTimeout",
    "DatagramTooLarge",
    "RpcTypeStats",
    "TransportStats",
    "WallClock",
    "Transport",
    "rpc_name",
]


class TransportError(Exception):
    """Base class of every delivery failure a transport can raise.

    The simulated network's ``NodeUnreachable`` and ``MessageDropped`` are
    subclasses, as are the UDP transport's :class:`RequestTimeout` and
    :class:`DatagramTooLarge`.  The node layer catches the whole family but
    tells them apart: only a timeout or an unreachable address is evidence
    that the peer is dead.
    """


class RequestTimeout(TransportError):
    """No response arrived within the configured timeout/retry budget."""


class DatagramTooLarge(TransportError):
    """An encoded frame exceeds the transport's maximum datagram size."""


@dataclass(slots=True)
class RpcTypeStats:
    """Counters for one RPC message type (``ping``, ``find_node``, ...)."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "retries": self.retries,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


@dataclass(slots=True)
class TransportStats:
    """Per-message-type RPC counters kept by every transport."""

    per_type: dict[str, RpcTypeStats] = field(default_factory=dict)
    #: Inbound frames that failed to decode (UDP only; 0 on the simulator).
    malformed_frames: int = 0
    #: Responses dropped because they exceeded the datagram bound (UDP only).
    oversize_dropped: int = 0
    #: Requests served from the server-side replay cache instead of being
    #: re-executed (a client retry whose original execution already answered).
    replays_served: int = 0

    def of(self, name: str) -> RpcTypeStats:
        stats = self.per_type.get(name)
        if stats is None:
            stats = self.per_type[name] = RpcTypeStats()
        return stats

    @property
    def rpcs_sent(self) -> int:
        return sum(s.sent for s in self.per_type.values())

    @property
    def rpcs_failed(self) -> int:
        return sum(s.failed for s in self.per_type.values())

    def snapshot(self) -> dict[str, Any]:
        return {
            "per_type": {name: s.snapshot() for name, s in sorted(self.per_type.items())},
            "malformed_frames": self.malformed_frames,
            "oversize_dropped": self.oversize_dropped,
            "replays_served": self.replays_served,
        }

    def reset(self) -> None:
        self.per_type.clear()
        self.malformed_frames = 0
        self.oversize_dropped = 0
        self.replays_served = 0


class WallClock:
    """Monotonic wall time in milliseconds, duck-typed to ``SimulationClock``.

    ``advance`` exists so code charging virtual latency (none does on the
    real-network path, but the seam allows it) degrades to a no-op instead of
    crashing: wall time advances itself.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.monotonic()

    @property
    def now(self) -> float:
        """Milliseconds since this clock was created."""
        return (time.monotonic() - self._start) * 1_000.0

    def advance(self, delta: float) -> float:  # pragma: no cover - seam no-op
        return self.now

    def advance_to(self, timestamp: float) -> float:  # pragma: no cover
        return self.now


#: An RPC handler takes (sender_address, request) and returns a response.
RPCHandler = Callable[[str, Any], Any]


@cache
def _rpc_name_of(cls: type) -> str:
    name = cls.__name__
    for suffix in ("Request", "Response"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index:
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def rpc_name(message: Any) -> str:
    """The stats key of an RPC message: ``FindNodeRequest`` -> ``find_node``.

    Works on both requests and responses; unknown objects map to their
    lower-cased class name so accounting stays total.  Derived once per
    message class.
    """
    return _rpc_name_of(type(message))


class Transport(ABC):
    """Send/receive seam between the Kademlia node and the outside world."""

    #: Duck-typed clock (``SimulationClock`` or :class:`WallClock`).
    clock: Any
    #: Per-message-type RPC counters.
    stats: TransportStats

    # -- membership -------------------------------------------------------- #

    @abstractmethod
    def register(self, address: str, handler: RPCHandler) -> None:
        """Attach a node's RPC dispatcher to *address*."""

    @abstractmethod
    def unregister(self, address: str) -> None:
        """Detach the node at *address* (it leaves the overlay)."""

    @abstractmethod
    def is_registered(self, address: str) -> bool:
        """Whether *address* currently has a live handler on this transport."""

    def local_address(self) -> str | None:
        """The transport's own endpoint address, when it has exactly one.

        The UDP transport returns its bound ``host:port`` so a node created
        on top of it inherits the real socket address; the simulated
        transport returns ``None`` (node addresses are allocator-issued
        names, many nodes share one transport).
        """
        return None

    # -- delivery ----------------------------------------------------------- #

    @abstractmethod
    def send(self, sender: str, destination: str, request: Any) -> Any:
        """Deliver *request* to *destination* and return the peer's response.

        Blocking; raises a :class:`TransportError` subclass on any failure
        (unreachable peer, loss, timeout, oversize frame).
        """

    # -- lifecycle ----------------------------------------------------------- #

    def close(self) -> None:
        """Release transport resources (no-op by default)."""
