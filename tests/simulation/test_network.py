"""Unit tests for the simulated network transport."""

import pytest

from repro.simulation.network import (
    MessageDropped,
    NetworkConfig,
    NodeUnreachable,
    SimulatedNetwork,
)


def echo_handler(sender, payload):
    return {"echo": payload, "from": sender}


class TestConfigValidation:
    def test_latency_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(min_latency_ms=-1)
        with pytest.raises(ValueError):
            NetworkConfig(min_latency_ms=10, max_latency_ms=5)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(loss_rate=-0.1)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            NetworkConfig(timeout_ms=0)


class TestDelivery:
    def test_round_trip_delivery_and_latency(self):
        network = SimulatedNetwork(NetworkConfig(min_latency_ms=2, max_latency_ms=4, seed=0))
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        response = network.send("a", "b", {"ping": 1})
        assert response["echo"] == {"ping": 1}
        # Two one-way latencies were charged.
        assert 4 <= network.clock.now <= 8
        assert network.stats.messages_delivered == 2
        assert network.stats.received_by_node["b"] == 1

    def test_duplicate_registration_rejected(self):
        network = SimulatedNetwork()
        network.register("a", echo_handler)
        with pytest.raises(ValueError):
            network.register("a", echo_handler)

    def test_unreachable_destination(self):
        network = SimulatedNetwork(NetworkConfig(timeout_ms=100, seed=0))
        network.register("a", echo_handler)
        with pytest.raises(NodeUnreachable):
            network.send("a", "ghost", "hello")
        assert network.stats.rpcs_failed_unreachable == 1
        assert network.clock.now >= 100  # timeout charged

    def test_unregister_makes_node_unreachable(self):
        network = SimulatedNetwork()
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        network.unregister("b")
        assert not network.is_registered("b")
        with pytest.raises(NodeUnreachable):
            network.send("a", "b", "x")

    def test_partition_and_heal(self):
        network = SimulatedNetwork()
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        network.partition("b")
        with pytest.raises(NodeUnreachable):
            network.send("a", "b", "x")
        network.heal("b")
        assert network.send("a", "b", "x")["echo"] == "x"

    def test_message_loss_eventually_drops(self):
        network = SimulatedNetwork(
            NetworkConfig(loss_rate=0.5, timeout_ms=10, min_latency_ms=1, max_latency_ms=1, seed=3)
        )
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        drops = 0
        for _ in range(50):
            try:
                network.send("a", "b", "x")
            except MessageDropped:
                drops += 1
        assert drops > 0
        assert network.stats.messages_dropped == drops

    def test_zero_loss_never_drops(self):
        network = SimulatedNetwork(NetworkConfig(loss_rate=0.0, seed=0))
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        for _ in range(20):
            network.send("a", "b", "x")
        assert network.stats.messages_dropped == 0


class _ScriptedRng:
    """random.Random stand-in: ``random()`` pops scripted values."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)

    def uniform(self, low, high):
        return low


class TestDeliveredAccounting:
    def test_response_leg_drop_still_counts_the_delivered_request(self):
        """The handler ran, so the request leg was delivered (the response
        receipt is what is missing, and responses are not tracked per node)."""
        network = SimulatedNetwork(
            NetworkConfig(loss_rate=0.5, timeout_ms=10, min_latency_ms=1, max_latency_ms=1)
        )
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        # Request leg survives (0.9 >= loss_rate), response leg drops (0.1).
        network._rng = _ScriptedRng([0.9, 0.1])
        with pytest.raises(MessageDropped):
            network.send("a", "b", "x")
        assert network.stats.messages_delivered == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.received_by_node["b"] == 1

    def test_request_leg_drop_delivers_nothing(self):
        network = SimulatedNetwork(
            NetworkConfig(loss_rate=0.5, timeout_ms=10, min_latency_ms=1, max_latency_ms=1)
        )
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        network._rng = _ScriptedRng([0.1])
        with pytest.raises(MessageDropped):
            network.send("a", "b", "x")
        assert network.stats.messages_delivered == 0
        assert network.stats.received_by_node["b"] == 0


class TestStats:
    def test_hotspots_and_reset(self):
        network = SimulatedNetwork(NetworkConfig(seed=0))
        network.register("a", echo_handler)
        network.register("b", echo_handler)
        network.register("c", echo_handler)
        for _ in range(5):
            network.send("a", "b", "x")
        network.send("a", "c", "x")
        hotspots = network.stats.hotspots(2)
        assert hotspots[0] == ("b", 5)
        assert network.stats.bytes_transferred > 0
        network.stats.reset()
        assert network.stats.messages_sent == 0
        assert network.stats.hotspots() == []

    def test_both_legs_are_charged_their_frame_size(self):
        from repro.dht.messages import PingRequest, PingResponse, wire_size
        from repro.dht.node_id import NodeID

        request = PingRequest(sender_id=NodeID.hash_of("a"), sender_address="a")
        response = PingResponse(responder_id=NodeID.hash_of("b"))
        network = SimulatedNetwork(NetworkConfig(seed=0))
        network.register("a", echo_handler)
        network.register("b", lambda sender, payload: response)
        network.send("a", "b", request)
        assert network.stats.bytes_transferred == wire_size(request) + wire_size(response)
        # An unreachable destination still costs the request leg.
        with pytest.raises(NodeUnreachable):
            network.send("a", "ghost", request)
        assert network.stats.bytes_transferred == 2 * wire_size(request) + wire_size(response)

    def test_sizing_never_stringifies_the_payload(self):
        class Unprintable:
            def __repr__(self):
                raise AssertionError("payload was stringified")

            __str__ = __repr__

        payload = Unprintable()
        network = SimulatedNetwork(NetworkConfig(seed=0))
        network.register("a", echo_handler)
        network.register("b", lambda sender, received: received)
        assert network.send("a", "b", payload) is payload
        assert network.stats.messages_delivered == 2
        assert network.stats.bytes_transferred > 0

    def test_seeded_networks_behave_identically(self):
        def run(seed):
            network = SimulatedNetwork(NetworkConfig(min_latency_ms=1, max_latency_ms=50, seed=seed))
            network.register("a", echo_handler)
            network.register("b", echo_handler)
            for _ in range(10):
                network.send("a", "b", "x")
            return network.clock.now

        assert run(5) == run(5)
        assert run(5) != run(6)
