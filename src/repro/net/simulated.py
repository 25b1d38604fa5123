"""``SimulatedTransport``: another name for the simulator's network, which is a ``Transport``."""

from repro.simulation.network import SimulatedNetwork

SimulatedTransport = SimulatedNetwork
