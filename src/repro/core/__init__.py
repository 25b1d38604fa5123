"""Core folksonomy model of the DHARMA paper (Section III and IV-A).

This subpackage implements the *abstract* tagging-system model:

* :class:`~repro.core.tag_resource_graph.TagResourceGraph` -- the weighted
  bipartite Tag-Resource Graph (TRG).
* :class:`~repro.core.folksonomy_graph.FolksonomyGraph` -- the directed,
  weighted tag-tag similarity graph (FG).
* :class:`~repro.core.tagging_model.TaggingModel` -- the combined model with
  the two maintenance operations of Section III-B (resource insertion and tag
  insertion), in both *exact* and *approximated* flavours.
* :class:`~repro.core.faceted_search.FacetedSearch` -- the navigational search
  process of Section III-C.
* :mod:`~repro.core.blocks` -- the block decomposition of Section IV-A that is
  used to map the graphs onto a DHT.
* :mod:`~repro.core.approximation` -- Approximations A and B of Section IV-B.

The core package is deliberately independent of the DHT substrate: it can be
used stand-alone as an in-memory folksonomy engine, and it doubles as the
*reference model* against which the distributed implementation is validated.
"""

from importlib import import_module

#: Exports resolved on first use (PEP 562), name -> submodule: the frozen
#: index and the search engine import numpy, which the DHT and wire layers
#: (they need :mod:`~repro.core.codec` and :mod:`~repro.core.blocks` only)
#: must not pay for.
_LAZY_EXPORTS = {
    "TagResourceGraph": "tag_resource_graph",
    "FolksonomyGraph": "folksonomy_graph",
    "TaggingModel": "tagging_model",
    "StringInterner": "interning",
    "CompactFolksonomy": "compact",
    "freeze_folksonomy": "compact",
    "FacetedSearch": "faceted_search",
    "SearchState": "faceted_search",
    "SearchStrategy": "faceted_search",
    "FirstTagStrategy": "faceted_search",
    "LastTagStrategy": "faceted_search",
    "RandomTagStrategy": "faceted_search",
    "ApproximationConfig": "approximation",
    "BlockType": "blocks",
    "BlockKey": "blocks",
    "ResourceTagsBlock": "blocks",
    "TagResourcesBlock": "blocks",
    "TagNeighboursBlock": "blocks",
    "ResourceURIBlock": "blocks",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f"{__name__}.{_LAZY_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY_EXPORTS)
