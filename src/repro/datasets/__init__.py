"""Datasets: annotation triples, the synthetic Last.fm substitute and
structural statistics.

The paper's evaluation uses a proprietary Last.fm crawl (Jan-Apr 2009,
99 405 users, ~11 M ⟨user, item, tag⟩ triples, 1 413 657 resources, 285 182
tags).  The crawl is not redistributable, so the reproduction ships
:func:`~repro.datasets.lastfm_synthetic.generate_lastfm_like`, a seeded
generator whose output matches the *published structural statistics* of the
dataset (Table II and Figure 5): heavy-tailed degree distributions with a
strong core-periphery split, a majority of singleton tags, and synonym
families among popular tags.  Everything downstream (evolution replay,
approximation quality, search convergence) only depends on those structural
properties.
"""

from importlib import import_module

#: Exports resolved on first use (PEP 562), name -> submodule: the generator
#: and the statistics import numpy.
_LAZY_EXPORTS = {
    "Annotation": "triples",
    "AnnotationDataset": "triples",
    "LastfmSyntheticConfig": "lastfm_synthetic",
    "generate_lastfm_like": "lastfm_synthetic",
    "load_triples_tsv": "loader",
    "save_triples_tsv": "loader",
    "DegreeStatistics": "stats",
    "FolksonomyStats": "stats",
    "compute_folksonomy_stats": "stats",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f"{__name__}.{_LAZY_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY_EXPORTS)
