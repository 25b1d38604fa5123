"""The pluggable transport layer.

:mod:`repro.net` is the seam between the Kademlia node and the outside
world.  :class:`~repro.net.base.Transport` defines the contract (register a
handler, deliver a request, report failures as
:class:`~repro.net.base.TransportError`); two implementations plug in:

* :class:`~repro.simulation.network.SimulatedNetwork` -- the default for
  every experiment: the in-process network is itself the transport of every
  node it carries, so one stats object counts an overlay's traffic;
* :class:`~repro.net.udp.UdpTransport` -- a real UDP RPC layer
  (request-id correlation, timeout/retry with backoff, max-datagram
  enforcement) used by ``dharma serve`` to run one node per OS process.

Traffic is counted only in each transport's stats.  :mod:`repro.net.wire`
defines the golden-byte-pinned binary frame format of every DHT RPC, built
from the LEB128 vocabulary of :mod:`repro.core.codec`; :mod:`repro.net.server`
wires a full DHARMA node onto a UDP socket.
"""

from repro.net.base import (
    DatagramTooLarge,
    RequestTimeout,
    RpcTypeStats,
    Transport,
    TransportError,
    TransportStats,
    WallClock,
    rpc_name,
)

#: The node layer imports repro.net.base at its own top level, and importing
#: *any* submodule first executes this package __init__ -- so the UDP
#: transport (which imports repro.dht back) must load lazily or the modules
#: deadlock on each other's half-initialised bodies.
_LAZY = {
    "UdpTransport": "repro.net.udp",
    "UdpTransportConfig": "repro.net.udp",
}

__all__ = [
    "DatagramTooLarge",
    "RequestTimeout",
    "RpcTypeStats",
    "Transport",
    "TransportError",
    "TransportStats",
    "WallClock",
    "rpc_name",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
