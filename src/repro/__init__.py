"""DHARMA reproduction: DHT-based collaborative tagging with approximated
folksonomy maintenance.

This package reproduces *"Tagging with DHARMA, a DHT-based Approach for
Resource Mapping through Approximation"* (Aiello, Milanesio, Ruffo,
Schifanella -- IPPS 2010, arXiv:1101.3761):

* :mod:`repro.core` -- the tagging-system model: Tag-Resource Graph,
  Folksonomy Graph, graph maintenance, faceted search, block decomposition
  and the approximation policy (Approximations A and B);
* :mod:`repro.dht` -- the Kademlia/Likir substrate (160-bit id space,
  k-buckets, iterative lookups, PUT/GET/APPEND, identity layer);
* :mod:`repro.simulation` -- in-process overlay simulation (virtual clock,
  latency/loss model, churn, workload replay);
* :mod:`repro.distributed` -- DHARMA itself: the naive and approximated
  maintenance protocols, the tagging service facade, the distributed faceted
  search and the Table I cost model;
* :mod:`repro.datasets` -- annotation triples, the synthetic Last.fm
  substitute and structural statistics (Table II / Figure 5);
* :mod:`repro.analysis` -- the evaluation machinery (evolution replay, graph
  comparison, convergence simulation and the associated metrics).

Quickstart
----------

>>> from repro import TaggingModel
>>> model = TaggingModel()
>>> _ = model.insert_resource("nevermind", ["grunge", "rock", "90s"])
>>> _ = model.add_tag("nevermind", "seattle")
>>> sorted(model.fg.neighbours("grunge"))
['90s', 'rock', 'seattle']
"""

from importlib import import_module

__version__ = "1.0.0"

#: Every public name resolves on first use (PEP 562), name -> defining
#: package: ``import repro`` -- which every ``dharma serve`` child runs on its
#: way to ``repro.cli`` -- loads no subpackage, and so neither numpy nor the
#: simulator.
_LAZY_EXPORTS = {
    "TagResourceGraph": "repro.core",
    "FolksonomyGraph": "repro.core",
    "TaggingModel": "repro.core",
    "FacetedSearch": "repro.core",
    "ApproximationConfig": "repro.core",
    "BlockKey": "repro.core",
    "BlockType": "repro.core",
    "EXACT": "repro.core.approximation",
    "default_approximation": "repro.core.approximation",
    "ModelView": "repro.core.faceted_search",
    "derive_folksonomy_graph": "repro.core.tagging_model",
    "AnnotationDataset": "repro.datasets",
    "LastfmSyntheticConfig": "repro.datasets",
    "generate_lastfm_like": "repro.datasets",
    "compute_folksonomy_stats": "repro.datasets",
    "NodeID": "repro.dht",
    "NodeConfig": "repro.dht",
    "KademliaNode": "repro.dht",
    "DHTClient": "repro.dht",
    "build_overlay": "repro.dht",
    "DharmaService": "repro.distributed",
    "ServiceConfig": "repro.distributed",
    "NaiveProtocol": "repro.distributed",
    "ApproximatedProtocol": "repro.distributed",
    "simulate_approximated_evolution": "repro.analysis",
    "compare_graphs": "repro.analysis",
    "run_convergence_experiment": "repro.analysis",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__", *_LAZY_EXPORTS]
