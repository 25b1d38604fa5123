"""The simulated network's per-type RPC ledger, pinned path by path.

:class:`SimulatedNetwork` is the :class:`~repro.net.base.Transport` of every
simulated node, and its :class:`NetworkStats` is a
:class:`~repro.net.base.TransportStats`: one object holds both the per-type
RPC counters every transport keeps and the network's message, byte and
hotspot totals.  Each delivery path of :meth:`SimulatedNetwork.send` books
the RPC exactly once:

* **answered** -- ``succeeded``;
* **unreachable / partitioned** -- ``failed``;
* **request or response dropped** -- ``failed``;
* **handler raised** -- ``succeeded`` (a live peer answered with a fault, as
  UDP books a ``RemoteFault``), and the exception reaches the caller.

So ``sent == succeeded + failed`` holds for every message type at all times.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_lastfm_like
from repro.dht.messages import FindNodeRequest, PingRequest, PingResponse, wire_size
from repro.dht.node_id import NodeID
from repro.net.base import Transport, TransportStats
from repro.net.simulated import SimulatedTransport
from repro.simulation.cluster import ClusterConfig, SimulatedCluster
from repro.simulation.network import (
    MessageDropped,
    NetworkConfig,
    NetworkStats,
    NodeUnreachable,
    SimulatedNetwork,
)
from repro.simulation.workload import TaggingWorkload

A = NodeID.hash_of("a")
B = NodeID.hash_of("b")
PING = PingRequest(sender_id=A, sender_address="a")
PONG = PingResponse(responder_id=B)
FIND = FindNodeRequest(sender_id=A, sender_address="a", target=B)


class _ScriptedRng:
    """random.Random stand-in: ``random()`` pops scripted drop rolls."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)

    def uniform(self, low, high):
        return low


def make_network(loss_rate: float = 0.0, seed: int = 0) -> SimulatedNetwork:
    network = SimulatedNetwork(
        NetworkConfig(
            min_latency_ms=1, max_latency_ms=2, loss_rate=loss_rate, timeout_ms=10, seed=seed
        )
    )
    network.register("a", lambda sender, request: PONG)
    network.register("b", lambda sender, request: PONG)
    return network


def booked(network: SimulatedNetwork, name: str = "ping") -> tuple[int, int, int]:
    per_type = network.stats.of(name)
    return per_type.sent, per_type.succeeded, per_type.failed


class TestTheNetworkIsTheTransport:
    def test_network_is_a_transport_under_both_names(self):
        network = SimulatedNetwork()
        assert isinstance(network, Transport)
        assert SimulatedTransport is SimulatedNetwork
        # Many nodes share one network, so it has no single endpoint.
        assert network.local_address() is None

    def test_one_stats_object_holds_every_counter(self):
        network = make_network()
        network.send("a", "b", PING)
        stats = network.stats
        assert isinstance(stats, NetworkStats)
        assert isinstance(stats, TransportStats)
        assert stats.snapshot()["per_type"]["ping"]["sent"] == 1
        assert stats.messages_sent == 2


class TestEachPathIsBookedOnce:
    def test_answered_rpc_is_booked_succeeded(self):
        network = make_network()
        assert network.send("a", "b", PING) is PONG
        assert booked(network) == (1, 1, 0)

    def test_unreachable_destination_is_booked_failed(self):
        network = make_network()
        with pytest.raises(NodeUnreachable):
            network.send("a", "ghost", PING)
        assert booked(network) == (1, 0, 1)
        assert network.stats.rpcs_failed_unreachable == 1

    def test_partitioned_sender_is_booked_failed(self):
        network = make_network()
        network.partition("a")
        with pytest.raises(NodeUnreachable):
            network.send("a", "b", PING)
        assert booked(network) == (1, 0, 1)

    def test_request_drop_is_booked_failed(self):
        network = make_network(loss_rate=0.5)
        network._rng = _ScriptedRng([0.1])
        with pytest.raises(MessageDropped):
            network.send("a", "b", PING)
        assert booked(network) == (1, 0, 1)

    def test_response_drop_is_booked_failed_though_the_handler_ran(self):
        served = []
        network = make_network(loss_rate=0.5)
        network.register("c", lambda sender, request: served.append(request) or PONG)
        network._rng = _ScriptedRng([0.9, 0.1])
        with pytest.raises(MessageDropped):
            network.send("a", "c", PING)
        assert served == [PING]
        assert booked(network) == (1, 0, 1)

    def test_handler_fault_is_booked_succeeded_and_reaches_the_caller(self):
        def refuse(sender, request):
            raise PermissionError("refused")

        network = make_network()
        network.register("c", refuse)
        with pytest.raises(PermissionError, match="refused"):
            network.send("a", "c", PING)
        assert booked(network) == (1, 1, 0)
        # Only the request leg travelled: no response leg is counted.
        stats = network.stats
        assert stats.messages_sent == 1
        assert stats.messages_delivered == 1
        assert stats.received_by_node["c"] == 1
        assert stats.bytes_transferred == wire_size(PING)


class TestLedgerTotals:
    def test_rpcs_are_keyed_by_request_type(self):
        network = make_network()
        network.send("a", "b", PING)
        network.send("a", "b", FIND)
        network.send("b", "a", FIND)
        assert sorted(network.stats.per_type) == ["find_node", "ping"]
        assert booked(network, "find_node") == (2, 2, 0)

    def test_rpcs_sent_counts_requests_while_messages_count_legs(self):
        network = make_network()
        for _ in range(5):
            network.send("a", "b", PING)
        assert network.stats.rpcs_sent == 5
        assert network.stats.messages_sent == 10

    def test_ledger_balances_over_a_lossy_run(self):
        network = make_network(loss_rate=0.3, seed=11)
        outcomes = {"ok": 0, "failed": 0}
        for i in range(200):
            destination = "ghost" if i % 17 == 0 else "b"
            try:
                network.send("a", destination, PING if i % 2 else FIND)
                outcomes["ok"] += 1
            except (NodeUnreachable, MessageDropped):
                outcomes["failed"] += 1
        stats = network.stats
        for name in ("ping", "find_node"):
            per_type = stats.of(name)
            assert per_type.sent == per_type.succeeded + per_type.failed, name
        assert stats.rpcs_sent == 200
        assert stats.rpcs_failed == outcomes["failed"]
        assert stats.rpcs_failed == stats.messages_dropped + stats.rpcs_failed_unreachable
        assert outcomes["ok"] > 0 and stats.messages_dropped > 0

    def test_bytes_are_counted_on_the_network_not_per_type(self):
        """The simulator sizes frames once, in ``bytes_transferred``; the
        per-type byte and retry fields belong to the UDP transport."""
        network = make_network()
        network.send("a", "b", PING)
        assert network.stats.bytes_transferred == wire_size(PING) + wire_size(PONG)
        per_type = network.stats.of("ping")
        assert (per_type.bytes_sent, per_type.bytes_received, per_type.retries) == (0, 0, 0)

    def test_reset_clears_per_type_and_network_counters(self):
        network = make_network()
        network.send("a", "b", PING)
        with pytest.raises(NodeUnreachable):
            network.send("a", "ghost", FIND)
        network.stats.reset()
        stats = network.stats
        assert stats.per_type == {}
        assert (stats.rpcs_sent, stats.rpcs_failed) == (0, 0)
        assert stats.messages_sent == stats.bytes_transferred == 0
        assert stats.rpcs_failed_unreachable == 0
        network.send("a", "b", PING)
        assert booked(network) == (1, 1, 0)


class TestByteLedgerPin:
    """The exact totals of one small seeded cluster run.

    The other ledger tests compare ``bytes_transferred`` with ``wire_size``
    itself, so a change to how a message is sized, how often a reply is
    charged or which messages a run sends would pass them all; these
    literals catch it.  A change meant to move them re-records them here.
    """

    def test_tags_and_searches_on_a_seeded_cluster(self):
        # 64 nodes join iteratively, so the join traffic is in the totals.
        cluster = SimulatedCluster(ClusterConfig(num_nodes=64, clients=2, seed=3))
        workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
        result = cluster.run_workload(workload, limit=30, ignore_errors=False)
        for tag in ("pop", "hip-hop", "punk"):
            cluster.services[0].faceted_search(tag)
        stats = cluster.overlay.network.stats
        assert (result.insert_ops, result.tag_ops, result.errors) == (16, 14, 0)
        assert (stats.messages_sent, stats.bytes_transferred, cluster.overlay.clock.now) == (
            2636,
            380649,
            7911.769275918824,
        )
