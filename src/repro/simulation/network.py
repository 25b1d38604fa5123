"""The simulated overlay transport.

:class:`SimulatedNetwork` is the in-process :class:`~repro.net.base.Transport`:
every node of a simulated overlay registers on the one network and speaks
through it, so the network is each node's ``transport``.  RPCs are delivered
synchronously: the caller invokes :meth:`SimulatedNetwork.send`, the network
looks up the destination handler, models latency and loss, and returns the
handler's response.  Two failure modes are modelled:

* **unreachable node** -- the destination address is not registered (node left
  the overlay or never existed): :class:`NodeUnreachable` is raised;
* **message loss** -- with probability ``loss_rate`` per message either the
  request or the response is dropped: :class:`MessageDropped` is raised after
  the configured timeout has been charged to the virtual clock.

The network counts all traffic in one :class:`NetworkStats`: the per-type RPC
counters every transport keeps, plus total messages, bytes (each message's
estimated :mod:`repro.net.wire` frame size, both legs of an RPC), per-node
received-message counters (used to study hotspots), and drop counts.  All
randomness is drawn from a seeded generator so simulations are reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.net.base import RPCHandler, Transport, TransportError, TransportStats, rpc_name
from repro.simulation.clock import SimulationClock

__all__ = [
    "NetworkConfig",
    "NetworkStats",
    "NodeUnreachable",
    "MessageDropped",
    "SimulatedNetwork",
]


class NodeUnreachable(TransportError):
    """The destination address is not registered on the network."""


class MessageDropped(TransportError):
    """The request or the response was lost in transit."""


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Tunable parameters of the simulated transport.

    Latencies are one-way, in virtual milliseconds; each RPC charges two of
    them (request + response).  ``loss_rate`` is the per-message drop
    probability, applied independently to the request and the response.
    """

    min_latency_ms: float = 5.0
    max_latency_ms: float = 60.0
    loss_rate: float = 0.0
    timeout_ms: float = 1_000.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.min_latency_ms < 0 or self.max_latency_ms < self.min_latency_ms:
            raise ValueError("latency bounds must satisfy 0 <= min <= max")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")


@dataclass(slots=True)
class NetworkStats(TransportStats):
    """The network's counters: per-type RPCs plus aggregate message totals."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    rpcs_failed_unreachable: int = 0
    bytes_transferred: int = 0
    #: messages *received* per destination address -- the hotspot measure.
    received_by_node: Counter = field(default_factory=Counter)

    def reset(self) -> None:
        TransportStats.reset(self)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.rpcs_failed_unreachable = 0
        self.bytes_transferred = 0
        self.received_by_node.clear()

    def hotspots(self, n: int = 10) -> list[tuple[str, int]]:
        """The *n* addresses that received the most messages."""
        return self.received_by_node.most_common(n)


class SimulatedNetwork(Transport):
    """Synchronous in-process message bus with latency/loss modelling."""

    def __init__(
        self,
        config: NetworkConfig | None = None,
        clock: SimulationClock | None = None,
    ) -> None:
        self.config = config or NetworkConfig()
        self.clock = clock or SimulationClock()
        self.stats = NetworkStats()
        self._rng = random.Random(self.config.seed)
        # Imported here because repro.dht's package __init__ imports the node
        # layer, which imports this module back.
        from repro.dht.messages import wire_size

        self._wire_size = wire_size
        self._handlers: dict[str, RPCHandler] = {}
        self._partitioned: set[str] = set()

    # -- membership -------------------------------------------------------- #

    def register(self, address: str, handler: RPCHandler) -> None:
        """Attach a node's RPC dispatcher to *address*."""
        if address in self._handlers:
            raise ValueError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        """Detach a node (it becomes unreachable -- models a crash/leave)."""
        self._handlers.pop(address, None)
        self._partitioned.discard(address)

    def is_registered(self, address: str) -> bool:
        return address in self._handlers

    @property
    def addresses(self) -> list[str]:
        return list(self._handlers)

    # -- fault injection ---------------------------------------------------- #

    def partition(self, address: str) -> None:
        """Temporarily isolate a node without deregistering it."""
        if address in self._handlers:
            self._partitioned.add(address)

    def heal(self, address: str) -> None:
        """Undo :meth:`partition`."""
        self._partitioned.discard(address)

    # -- delivery ----------------------------------------------------------- #

    def _one_way_latency(self) -> float:
        cfg = self.config
        return self._rng.uniform(cfg.min_latency_ms, cfg.max_latency_ms)

    def send(self, sender: str, destination: str, payload: Any) -> Any:
        """Deliver an RPC from *sender* to *destination* and return the reply.

        Raises :class:`NodeUnreachable` or :class:`MessageDropped` on failure;
        in both cases the virtual clock has already been charged (timeout on
        failure, two one-way latencies on success).  An exception raised by
        the destination's handler propagates to the caller; like a
        ``RemoteFault`` over UDP, that RPC is booked as succeeded.
        """
        stats = self.stats
        per_type = stats.of(rpc_name(payload))
        per_type.sent += 1
        stats.messages_sent += 1
        stats.bytes_transferred += self._wire_size(payload)

        handler = self._handlers.get(destination)
        if handler is None or destination in self._partitioned or sender in self._partitioned:
            stats.rpcs_failed_unreachable += 1
            per_type.failed += 1
            self.clock.advance(self.config.timeout_ms)
            raise NodeUnreachable(destination)

        # Request leg.
        if self.config.loss_rate and self._rng.random() < self.config.loss_rate:
            stats.messages_dropped += 1
            per_type.failed += 1
            self.clock.advance(self.config.timeout_ms)
            raise MessageDropped(f"request {sender} -> {destination}")
        self.clock.advance(self._one_way_latency())
        # The request reached its destination and the handler runs: that leg
        # counts as delivered even if the response is lost below (the
        # destination did receive and serve the request).
        stats.received_by_node[destination] += 1
        stats.messages_delivered += 1

        try:
            response = handler(sender, payload)
        except BaseException:
            # A live peer answered with a fault: the RPC itself got through.
            per_type.succeeded += 1
            raise

        # Response leg.
        stats.messages_sent += 1
        stats.bytes_transferred += self._wire_size(response)
        if self.config.loss_rate and self._rng.random() < self.config.loss_rate:
            stats.messages_dropped += 1
            per_type.failed += 1
            self.clock.advance(self.config.timeout_ms)
            raise MessageDropped(f"response {destination} -> {sender}")
        self.clock.advance(self._one_way_latency())
        stats.messages_delivered += 1
        per_type.succeeded += 1
        return response
