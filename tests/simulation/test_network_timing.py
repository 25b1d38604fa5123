"""Virtual-time charging of the simulated transport, pinned path by path.

:class:`SimulatedNetwork` is the transport of every simulated node, so
:meth:`SimulatedNetwork.send` fixes the clock of every experiment.  These
tests pin its semantics with a scripted RNG so every failure leg charges a
known, asserted amount of virtual time:

* **unreachable destination** -- one full ``timeout_ms`` is charged, nothing
  is delivered;
* **request drop** -- one full ``timeout_ms`` is charged, the destination
  never sees the message;
* **response drop** -- one request-leg latency *plus* one ``timeout_ms`` is
  charged, and the request leg still counts as delivered (the destination
  received and served it);
* **success** -- exactly two one-way latencies, no timeout.

Any refactor that changes these numbers changes every published benchmark
trajectory, so the assertions are exact, not approximate.
"""

from __future__ import annotations

import pytest

from repro.simulation.network import (
    MessageDropped,
    NetworkConfig,
    NodeUnreachable,
    SimulatedNetwork,
)


class ScriptedRng:
    """Stand-in RNG replaying pre-decided drop rolls and latencies."""

    def __init__(self, rolls: list[float], latencies: list[float]) -> None:
        self._rolls = list(rolls)
        self._latencies = list(latencies)

    def random(self) -> float:
        return self._rolls.pop(0)

    def uniform(self, low: float, high: float) -> float:
        value = self._latencies.pop(0)
        assert low <= value <= high, "scripted latency outside configured bounds"
        return value


def make_network(loss_rate: float = 0.5) -> SimulatedNetwork:
    return SimulatedNetwork(
        config=NetworkConfig(
            min_latency_ms=5.0,
            max_latency_ms=60.0,
            loss_rate=loss_rate,
            timeout_ms=1_000.0,
            seed=0,
        )
    )


def register_echo(network: SimulatedNetwork, address: str) -> None:
    network.register(address, lambda sender, payload: ("echo", payload))


class TestUnreachableCharging:
    def test_unregistered_destination_charges_one_timeout(self):
        network = make_network()
        register_echo(network, "a")
        with pytest.raises(NodeUnreachable):
            network.send("a", "ghost", "ping")
        assert network.clock.now == 1_000.0
        assert network.stats.messages_sent == 1
        assert network.stats.messages_delivered == 0
        assert network.stats.messages_dropped == 0
        assert network.stats.rpcs_failed_unreachable == 1
        assert network.stats.received_by_node["ghost"] == 0

    def test_partitioned_destination_charges_one_timeout(self):
        network = make_network()
        register_echo(network, "a")
        register_echo(network, "b")
        network.partition("b")
        with pytest.raises(NodeUnreachable):
            network.send("a", "b", "ping")
        assert network.clock.now == 1_000.0
        assert network.stats.rpcs_failed_unreachable == 1

    def test_partitioned_sender_charges_one_timeout(self):
        network = make_network()
        register_echo(network, "a")
        register_echo(network, "b")
        network.partition("a")
        with pytest.raises(NodeUnreachable):
            network.send("a", "b", "ping")
        assert network.clock.now == 1_000.0


class TestRequestDropCharging:
    def test_request_drop_charges_exactly_one_timeout(self):
        network = make_network()
        register_echo(network, "a")
        register_echo(network, "b")
        # First roll < loss_rate: the request leg is dropped before any
        # latency is charged; no scripted latency may be consumed.
        network._rng = ScriptedRng(rolls=[0.4], latencies=[])
        with pytest.raises(MessageDropped):
            network.send("a", "b", "ping")
        assert network.clock.now == 1_000.0
        assert network.stats.messages_sent == 1
        assert network.stats.messages_delivered == 0
        assert network.stats.messages_dropped == 1
        # The destination never received the request.
        assert network.stats.received_by_node["b"] == 0


class TestResponseDropCharging:
    def test_response_drop_charges_request_latency_plus_timeout(self):
        network = make_network()
        register_echo(network, "a")
        served = []
        network.register("b", lambda sender, payload: served.append(payload) or "pong")
        # Request survives (0.6 >= 0.5), travels 10ms, handler runs, then the
        # response roll 0.2 < 0.5 drops the reply after the timeout.
        network._rng = ScriptedRng(rolls=[0.6, 0.2], latencies=[10.0])
        with pytest.raises(MessageDropped):
            network.send("a", "b", "ping")
        assert network.clock.now == 10.0 + 1_000.0
        # The request leg was delivered and served even though the RPC failed.
        assert served == ["ping"]
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.received_by_node["b"] == 1


class TestSuccessCharging:
    def test_success_charges_two_one_way_latencies_and_no_timeout(self):
        network = make_network()
        register_echo(network, "a")
        register_echo(network, "b")
        network._rng = ScriptedRng(rolls=[0.9, 0.8], latencies=[12.0, 34.0])
        response = network.send("a", "b", "ping")
        assert response == ("echo", "ping")
        assert network.clock.now == 12.0 + 34.0
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 2
        assert network.stats.messages_dropped == 0

    def test_zero_loss_network_never_consumes_drop_rolls(self):
        network = make_network(loss_rate=0.0)
        register_echo(network, "a")
        register_echo(network, "b")
        # loss_rate == 0 short-circuits: only latencies may be drawn.
        network._rng = ScriptedRng(rolls=[], latencies=[7.0, 9.0])
        network.send("a", "b", "ping")
        assert network.clock.now == 16.0


class TestFailuresAreSequenced:
    def test_consecutive_failures_accumulate_timeouts(self):
        """Three failed RPCs in a row charge three timeouts: the caller's
        clock position after a burst of failures is exactly N * timeout_ms."""
        network = make_network()
        register_echo(network, "a")
        register_echo(network, "b")
        network._rng = ScriptedRng(rolls=[0.1, 0.3, 0.2], latencies=[])
        for _ in range(3):
            with pytest.raises(MessageDropped):
                network.send("a", "b", "ping")
        assert network.clock.now == 3_000.0
        assert network.stats.messages_dropped == 3
