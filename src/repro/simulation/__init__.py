"""In-process overlay simulation substrate.

The paper deployed DHARMA on Likir nodes communicating over UDP.  For the
reproduction we run the entire overlay inside one Python process: nodes are
plain objects and RPCs are delivered by :class:`~repro.simulation.network.SimulatedNetwork`,
which models per-link latency, message loss and unreachable nodes while
advancing a virtual :class:`~repro.simulation.clock.SimulationClock` and
keeping global message counters.

The :mod:`~repro.simulation.event_queue` module offers a small discrete-event
scheduler used by churn models and periodic maintenance;
:mod:`~repro.simulation.churn` provides node join/leave processes, and
:mod:`~repro.simulation.workload` replays tagging workloads against a
distributed DHARMA service.  :mod:`~repro.simulation.cluster` scales that to
1,000+ nodes, and :mod:`~repro.simulation.experiment` runs a cluster under
churn or attack and audits what survived.
"""

from importlib import import_module

from repro.simulation.clock import SimulationClock
from repro.simulation.event_queue import Event, EventQueue
from repro.simulation.network import (
    NetworkConfig,
    NetworkStats,
    NodeUnreachable,
    MessageDropped,
    SimulatedNetwork,
)
from repro.simulation.churn import ChurnConfig, ChurnProcess
from repro.simulation.workload import TaggingWorkload, WorkloadEvent, WorkloadStats

#: Cluster-harness and experiment exports resolved lazily (PEP 562), name ->
#: submodule: both sit on top of repro.dht, which itself imports
#: repro.simulation.network, so a top-level import here would be circular.
_LAZY_EXPORTS = {
    "ClusterConfig": "cluster",
    "SimulatedCluster": "cluster",
    "churn_cluster_config": "cluster",
    "SurvivalReport": "experiment",
    "run_survival_benchmark": "experiment",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f"{__name__}.{_LAZY_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimulationClock",
    "Event",
    "EventQueue",
    "NetworkConfig",
    "NetworkStats",
    "NodeUnreachable",
    "MessageDropped",
    "SimulatedNetwork",
    "ChurnConfig",
    "ChurnProcess",
    "TaggingWorkload",
    "WorkloadEvent",
    "WorkloadStats",
    *_LAZY_EXPORTS,
]
