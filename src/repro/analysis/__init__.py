"""Evaluation machinery (Section V).

* :mod:`~repro.analysis.metrics` -- Kendall's tau, cosine similarity, recall
  and the sim1% measure used in Table III;
* :mod:`~repro.analysis.cdf` -- empirical CDF helpers (Figures 5 and 7);
* :mod:`~repro.analysis.evolution` -- the popularity-driven replay that grows
  an approximated Folksonomy Graph from a target TRG (Section V-B);
* :mod:`~repro.analysis.comparison` -- original-vs-approximated graph
  comparison (Figures 6 and 8, Table III);
* :mod:`~repro.analysis.convergence` -- the faceted-search convergence
  simulation (Figure 7, Table IV);
* :mod:`~repro.analysis.report` -- plain-text table rendering shared by the
  benchmarks and the CLI;
* :mod:`~repro.analysis.survival` -- availability timelines / survival CDFs
  of churn runs (extension E11).
"""

from importlib import import_module

#: Exports resolved on first use (PEP 562), name -> submodule: the evaluation
#: modules import numpy, :mod:`~repro.analysis.report` (all ``dharma serve``
#: needs from here) is stdlib only.
_LAZY_EXPORTS = {
    "cosine_similarity": "metrics",
    "kendall_tau": "metrics",
    "recall": "metrics",
    "sim1_fraction": "metrics",
    "empirical_cdf": "cdf",
    "cdf_at": "cdf",
    "EvolutionConfig": "evolution",
    "EvolutionResult": "evolution",
    "simulate_approximated_evolution": "evolution",
    "ApproximationQuality": "comparison",
    "GraphComparison": "comparison",
    "compare_graphs": "comparison",
    "degree_pairs": "comparison",
    "weight_pairs": "comparison",
    "ConvergenceConfig": "convergence",
    "SearchLengthStats": "convergence",
    "StrategyOutcome": "convergence",
    "run_convergence_experiment": "convergence",
    "format_table": "report",
    "format_mapping": "report",
    "SURVIVAL_METRICS": "survival",
    "SurvivalSummary": "survival",
    "render_survival_comparison": "survival",
    "summarise_survival": "survival",
    "survival_deltas": "survival",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f"{__name__}.{_LAZY_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY_EXPORTS)
